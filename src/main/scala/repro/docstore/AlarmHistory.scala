package repro.docstore

import org.apache.spark.sql.{Column, DataFrame, Encoder, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** The batch component (Section 4.2(2)): long-term alarm storage plus the
  * historic analysis triggered per streaming window — "all devices that
  * triggered an alarm are analyzed in more detail by producing a histogram
  * of the number of alarms starting from a specific time t" (Section 4.1).
  *
  * Alarms are stored in the document store with `ts_epoch` (seconds), so the
  * histogram SQL is exactly reproducible in the DuckDB oracle.
  *
  * Next to the raw documents, the history keeps an in-memory per-device index
  * `device_addr → ts_epoch` of every document, so a window's histogram reads
  * only its devices' alarms instead of re-parsing the whole collection. The
  * history is the only writer of its collection: `ingest` stores the
  * documents and indexes them in one step, and counts what it stored. If the
  * collection holds any other number of documents — a second history over
  * the same store, or a store filled before this history was built — the
  * index no longer covers it, so `ingest` and `histogram` fail rather than
  * answer from it.
  */
final class AlarmHistory(spark: SparkSession, store: DocStore) {
  import AlarmHistory._

  // Guarded by `store`'s lock, which DocStore's own methods take: an insert
  // and the count it leaves behind are read as one step.
  private val index = mutable.HashMap.empty[String, mutable.ArrayBuffer[Long]]
  private var stored = 0L

  /** Ingest an alarm DataFrame (any schema containing device_addr + ts). */
  def ingest(alarms: DataFrame): Unit = {
    val withEpoch =
      if (alarms.columns.contains("ts_epoch")) alarms
      else alarms.withColumn("ts_epoch", unix_timestamp(col("ts")))
    val rows = withEpoch.drop("ts").select(DeviceCol, EpochCol, to_json(struct(col("*")))).collect()
    store.synchronized {
      checkSoleWriter()
      store.insertAll(Collection, rows.iterator.map(_.getString(2)))
      rows.foreach(add)
      stored += rows.length
    }
  }

  def historyDf: DataFrame = store.toDF(Collection)

  /** Histogram: per device that appears in `deviceAddrs`, the number of
    * alarms per `bucketSec`-wide time bucket since `fromEpoch`. */
  def histogram(deviceAddrs: Seq[String], fromEpoch: Long, bucketSec: Long = 3600): DataFrame = {
    val perDevice = store.synchronized {
      checkSoleWriter()
      deviceAddrs.distinct.flatMap(d => index.get(d).map(ts => (d, ts.filter(_ >= fromEpoch).toArray)))
    }
    // An RDD rather than a local Seq: over a LocalRelation the optimizer
    // would fold the filter and projection away at planning time. The task
    // ships one primitive array per device and expands it into entries; the
    // single partition, declared by coalesce(1), lets the aggregate run
    // without a shuffle.
    val entries = spark.sparkContext.parallelize(perDevice, 1)
      .flatMap { case (d, ts) => ts.iterator.map(Entry(d, _)) }
    histogramOf(spark.createDataset(entries)(EntryEncoder).toDF().coalesce(1),
      deviceAddrs, fromEpoch, bucketSec)
  }

  /** Indexes a `(device_addr, ts_epoch)` row; a document missing either
    * can never pass the histogram's filter. */
  private def add(r: Row): Unit =
    if (!r.isNullAt(0) && !r.isNullAt(1))
      index.getOrElseUpdate(r.getString(0), mutable.ArrayBuffer.empty[Long]) += r.getLong(1)

  private def checkSoleWriter(): Unit = {
    val n = store.count(Collection)
    if (n != stored) throw new IllegalStateException(
      s"collection '$Collection' holds $n documents but this history stored $stored: " +
        "it has another writer, so the history's index does not cover it")
  }
}

object AlarmHistory {
  /** The collection a history stores its alarms in. */
  private val Collection = "alarms"

  /** One index entry as the histogram query reads it. */
  final case class Entry(device_addr: String, ts_epoch: Long)

  // Derived once: deriving a product encoder reflects over the case class.
  private val EntryEncoder: Encoder[Entry] = Encoders.product[Entry]

  private val DeviceCol: Column = col("device_addr").cast("string")
  // Whole seconds: against a whole-second cutoff and bucket width, the
  // filter and the bucket of floor(ts) equal those of ts.
  private val EpochCol: Column = floor(col("ts_epoch")).cast("long")

  /** Pure transformation, reusable from both the store and streaming paths. */
  def histogramOf(history: DataFrame, deviceAddrs: Seq[String],
                  fromEpoch: Long, bucketSec: Long): DataFrame =
    history
      .where(col("device_addr").isin(deviceAddrs: _*) &&
             col("ts_epoch") >= lit(fromEpoch))
      .groupBy(col("device_addr"),
               (floor(col("ts_epoch") / lit(bucketSec)) * lit(bucketSec)).as("bucket_start"))
      .agg(count(lit(1)).as("n_alarms"))
}
