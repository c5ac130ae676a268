package repro.docstore

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** MongoDB stand-in (Section 4.2(2) and 4.3): the batch component's
  * long-term, schema-flexible alarm store, queried through Spark SQL.
  *
  * The paper chose MongoDB because alarms are JSON-like documents whose
  * structure drifts across sensor types and software updates. Collections
  * hold raw JSON strings (no fixed schema — documents with different fields
  * coexist), and reads materialize a collection as a DataFrame via Spark's
  * JSON schema inference. [[AlarmHistory]] is the only writer outside this
  * package.
  */
final class DocStore(spark: SparkSession) {

  private val collections = mutable.Map.empty[String, mutable.ArrayBuffer[String]]

  private def coll(name: String): mutable.ArrayBuffer[String] = synchronized {
    collections.getOrElseUpdate(name, mutable.ArrayBuffer.empty[String])
  }

  /** Insert many raw JSON documents. */
  private[docstore] def insertAll(name: String, docs: IterableOnce[String]): Unit = synchronized {
    coll(name) ++= docs; ()
  }

  def count(name: String): Long = synchronized { coll(name).size.toLong }

  /** The raw documents of a collection, in insertion order. */
  private[docstore] def documents(name: String): Vector[String] = synchronized { coll(name).toVector }

  /** Materialize a collection as a DataFrame (schema inferred across all
    * documents; missing fields become nulls, like MongoDB projections). */
  def toDF(name: String): DataFrame = {
    import spark.implicits._
    spark.read.json(spark.createDataset(documents(name)))
  }
}
