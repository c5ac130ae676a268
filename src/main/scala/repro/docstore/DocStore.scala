package repro.docstore

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** MongoDB stand-in (Section 4.2(2) and 4.3): a schema-flexible JSON document
  * store over the local filesystem / memory, queried through Spark SQL.
  *
  * The paper chose MongoDB because alarms are JSON-like documents whose
  * structure drifts across sensor types and software updates, and because the
  * batch component needs query-by-field + histogram aggregation. This store
  * preserves exactly those properties: collections hold raw JSON strings
  * (no fixed schema — documents with different fields coexist), and reads
  * materialize a collection as a DataFrame via Spark's JSON schema inference.
  */
final class DocStore(spark: SparkSession) {

  private val collections = mutable.Map.empty[String, mutable.ArrayBuffer[String]]

  private def coll(name: String): mutable.ArrayBuffer[String] = synchronized {
    collections.getOrElseUpdate(name, mutable.ArrayBuffer.empty[String])
  }

  // Per-collection write counter; kept across `drop`, so a dropped and
  // refilled collection never repeats an earlier version.
  private val versions = mutable.Map.empty[String, Long].withDefaultValue(0L)

  private def touch(name: String): Unit = versions(name) += 1

  /** Insert one raw JSON document. */
  def insert(name: String, jsonDoc: String): Unit = synchronized {
    coll(name) += jsonDoc; touch(name)
  }

  /** Insert many raw JSON documents. */
  def insertAll(name: String, docs: IterableOnce[String]): Unit = synchronized {
    coll(name) ++= docs; touch(name)
  }

  /** Insert every row of a DataFrame as one JSON document. */
  def insertDf(name: String, df: DataFrame): Unit =
    insertAll(name, df.toJSON.collect())

  def count(name: String): Long = synchronized { coll(name).size.toLong }

  def collectionNames: Seq[String] = synchronized { collections.keys.toSeq.sorted }

  def drop(name: String): Unit = synchronized { collections.remove(name); touch(name) }

  /** Changes on every insert, load or drop of collection `name`, so a reader
    * that caches something derived from the collection can tell when the
    * cache is stale. */
  def version(name: String): Long = synchronized { versions(name) }

  /** Materialize a collection as a DataFrame (schema inferred across all
    * documents; missing fields become nulls, like MongoDB projections). */
  def toDF(name: String): DataFrame = {
    import spark.implicits._
    val docs = synchronized { coll(name).toVector }
    spark.read.json(spark.createDataset(docs))
  }

  /** Field-equality query, the basic MongoDB `find({field: value})`. */
  def find(name: String, field: String, value: String): DataFrame =
    toDF(name).where(org.apache.spark.sql.functions.col(field) === value)

  /** Persist every collection as JSON-lines files under `dir`. */
  def save(dir: String): Unit = synchronized {
    val base = Paths.get(dir)
    Files.createDirectories(base)
    for ((name, docs) <- collections) {
      Files.write(base.resolve(s"$name.jsonl"),
        docs.mkString("\n").getBytes(StandardCharsets.UTF_8))
    }
  }

  /** Load collections previously written by [[save]] (additive). */
  def load(dir: String): Unit = synchronized {
    val base = Paths.get(dir)
    if (Files.isDirectory(base)) {
      Files.list(base).iterator().asScala
        .filter(_.toString.endsWith(".jsonl"))
        .foreach { p: Path =>
          val name = p.getFileName.toString.stripSuffix(".jsonl")
          val lines = Files.readAllLines(p, StandardCharsets.UTF_8).asScala.filter(_.nonEmpty)
          coll(name) ++= lines
          touch(name)
        }
    }
  }
}
