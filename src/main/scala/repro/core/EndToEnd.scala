package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.AlarmSchema
import repro.docstore.AlarmHistory
import repro.streamlog.{AlarmEvent, AlarmSerializer, EmbeddedLog, LogConsumer}

/** The Consumer application of Section 5.5: drain the alarm log in
  * micro-batches and, per batch,
  *
  *   1. deserialize the raw records (the Fig. 11 bottleneck),
  *   2. stream part — build the batch DataFrame and extract the distinct
  *      device addresses of the window,
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

  import EndToEnd.BatchTiming

  private val consumer = new LogConsumer(log)

  def lag: Long = consumer.lag

  /** Consume one micro-batch; returns per-component timings. */
  def consumeBatch(maxPerPartition: Int = 100000): BatchTiming = {
    import spark.implicits._

    val polled = consumer.poll(maxPerPartition)

    val t0 = System.nanoTime()
    val events: IndexedSeq[AlarmEvent] = polled.flatMap(_._2).map(ser.read)
    val t1 = System.nanoTime()

    if (events.isEmpty) { consumer.commit(); return BatchTiming(0, 0, 0, 0, 0, 0, 0) }

    // Stream part: batch DataFrame + distinct devices in the window.
    val batchDf = AlarmSchema.eventFrame(spark, events).cache()
    val devices = batchDf.select("device_addr").distinct().as[String].collect()
    val t2 = System.nanoTime()

    // Batch part: hourly histogram of historic alarms for the window's
    // devices. Like the verdicts below, the rows are collected: a count()
    // would let the optimizer drop the per-bucket counts.
    val fromEpoch = events.iterator.map(_.tsEpoch).min - 30L * 86400
    val nHist = history.histogram(devices.toSeq, fromEpoch).collect().length.toLong
    val t3 = System.nanoTime()

    // ML part: classify + confidence for every alarm of the window. The
    // verdicts are collected: a count() would let the optimizer prune the
    // encoder and model away.
    val nScored = service.score(batchDf).collect().length.toLong
    val t4 = System.nanoTime()

    batchDf.unpersist()
    consumer.commit()
    BatchTiming(nScored, devices.length.toLong, nHist,
      (t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, (t4 - t3) / 1e9)
  }

  /** Drain everything currently in the log; returns (timings, alarms/sec). */
  def drain(maxPerPartition: Int = 100000): (Seq[BatchTiming], Double) = {
    val out = Seq.newBuilder[BatchTiming]
    val t0 = System.nanoTime()
    var total = 0L
    while (lag > 0) {
      val bt = consumeBatch(maxPerPartition)
      total += bt.nAlarms
      out += bt
    }
    val sec = (System.nanoTime() - t0) / 1e9
    (out.result(), if (sec > 0) total / sec else 0.0)
  }
}

object EndToEnd {
  final case class BatchTiming(nAlarms: Long, nDevices: Long, nHistogramRows: Long,
                               deserializeSec: Double, streamSec: Double,
                               historySec: Double, mlSec: Double) {
    def totalSec: Double = deserializeSec + streamSec + historySec + mlSec
  }
}
