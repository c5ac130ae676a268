package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.AlarmSchema
import repro.docstore.AlarmHistory
import repro.streamlog.{AlarmEvent, AlarmSerializer, EmbeddedLog, LogConsumer}

/** The Consumer application of Section 5.5: drain the alarm log in
  * micro-batches and, per batch,
  *
  *   1. deserialize the raw records (the Fig. 11 bottleneck),
  *   2. stream part — the window's distinct devices, taken from the decoded
  *      alarms, and the (lazy) scoring frame, one slice per log partition,
  *   3. batch part — hourly histogram of historic alarms for those devices,
  *   4. ML part — classify every alarm and attach its confidence,
  *
  * timing each component to reproduce the Fig. 12 breakdown, and committing
  * offsets only after the batch completes (exactly-once).
  */
final class EndToEnd(spark: SparkSession,
                     log: EmbeddedLog,
                     ser: AlarmSerializer,
                     history: AlarmHistory,
                     service: VerificationService) {

  import EndToEnd.{BatchTiming, HistoryWindowSec}

  private val consumer = new LogConsumer(log)

  def lag: Long = consumer.lag

  /** Consume one micro-batch; returns per-component timings. */
  def consumeBatch(maxPerPartition: Int = 100000): BatchTiming = {
    val polled = consumer.poll(maxPerPartition)

    val t0 = System.nanoTime()
    val events: IndexedSeq[AlarmEvent] = polled.flatMap(_._2).map(ser.read)
    val t1 = System.nanoTime()

    if (events.isEmpty) { consumer.commit(); return BatchTiming.Zero }

    // Stream part: like Spark's direct stream, one RDD partition per
    // non-empty log partition.
    val devices = events.map(_.deviceAddr).distinct
    val batchDf = AlarmSchema.eventFrame(spark, events, polled.count(_._2.nonEmpty))
    val t2 = System.nanoTime()

    // Batch part: hourly histogram of historic alarms for the window's
    // devices. Like the verdicts below, the rows are collected: a count()
    // would let the optimizer drop the per-bucket counts.
    val fromEpoch = events.iterator.map(_.tsEpoch).min - HistoryWindowSec
    val nHist = history.histogram(devices, fromEpoch).collect().length.toLong
    val t3 = System.nanoTime()

    // ML part: classify + confidence for every alarm of the window. The
    // verdicts are collected: a count() would let the optimizer prune the
    // encoder and model away.
    val nScored = service.score(batchDf).collect().length.toLong
    val t4 = System.nanoTime()

    consumer.commit()
    BatchTiming(nScored, devices.length.toLong, nHist,
      (t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, (t4 - t3) / 1e9)
  }

  /** Drain everything currently in the log; returns (timings, alarms/sec). */
  def drain(maxPerPartition: Int = 100000): (Seq[BatchTiming], Double) = {
    val out = Seq.newBuilder[BatchTiming]
    val t0 = System.nanoTime()
    while (lag > 0) out += consumeBatch(maxPerPartition)
    val sec = (System.nanoTime() - t0) / 1e9
    val timings = out.result()
    (timings, if (sec > 0) timings.map(_.nAlarms).sum / sec else 0.0)
  }
}

object EndToEnd {
  /** The history histogram's look-back before the window's earliest alarm. */
  val HistoryWindowSec: Long = 30L * 86400

  final case class BatchTiming(nAlarms: Long, nDevices: Long, nHistogramRows: Long,
                               deserializeSec: Double, streamSec: Double,
                               historySec: Double, mlSec: Double) {
    /** Fig. 12's consumer layers, in pipeline order, and their seconds. */
    def layers: Seq[(String, Double)] = Seq("deserialize" -> deserializeSec,
      "stream" -> streamSec, "history" -> historySec, "ml" -> mlSec)
    def totalSec: Double = layers.map(_._2).sum
    def +(o: BatchTiming): BatchTiming = BatchTiming(nAlarms + o.nAlarms, nDevices + o.nDevices,
      nHistogramRows + o.nHistogramRows, deserializeSec + o.deserializeSec,
      streamSec + o.streamSec, historySec + o.historySec, mlSec + o.mlSec)
  }
  object BatchTiming { val Zero: BatchTiming = BatchTiming(0, 0, 0, 0, 0, 0, 0) }
}
