package perfbench

import org.apache.spark.sql.{DataFrame, Row}
import scala.collection.mutable

/** One verdict as the consumer collects it from `VerificationService.verify`. */
final case class Verdict(id: Long, pTrue: Double, sendToArc: Boolean, prediction: Double)

object Verdict {
  val Columns: Seq[String] = Seq("id", "p_true", "send_to_arc", "prediction")

  def of(r: Row): Verdict =
    Verdict(r.getLong(0), r.getDouble(1), r.getBoolean(2), r.getDouble(3))
}

/** Reference verdicts, computed once in set-up by a single
  * `VerificationService.verify` call over every distinct alarm of the
  * workload. Log events cycle over those alarms, so event `id` maps to
  * reference row `baseOf(id)`. */
final class VerdictOracle(ref: Array[Verdict], baseOf: Long => Int, labelOf: Int => Int) {
  private val seen = mutable.HashSet.empty[Long]

  /** True when `v` is the first verdict for its id and matches the reference. */
  def check(v: Verdict): Boolean = {
    val r = ref(baseOf(v.id))
    seen.add(v.id) && math.abs(v.pTrue - r.pTrue) <= 1e-9 &&
      v.sendToArc == r.sendToArc && v.prediction == r.prediction
  }

  /** Whether the verdict's prediction equals the Δt = 1 min label. */
  def agreesWithLabel(v: Verdict): Boolean = v.prediction == labelOf(baseOf(v.id)).toDouble
}

/** Plain-Scala histogram over the documents the benchmark itself ingested
  * into `AlarmHistory`, in ingest order, so a batch can be checked against
  * the history as it stood when the batch queried it. */
final class HistogramOracle {
  private val devices = mutable.ArrayBuffer.empty[String]
  private val epochs = mutable.ArrayBuffer.empty[Long]

  def add(device: String, tsEpoch: Long): Unit = { devices += device; epochs += tsEpoch }

  def size: Int = devices.length

  /** (device, bucket start) -> alarm count over the first `docs` documents. */
  def expected(deviceSet: Set[String], fromEpoch: Long, bucketSec: Long,
               docs: Int): Map[(String, Long), Long] = {
    val out = mutable.HashMap.empty[(String, Long), Long]
    var i = 0
    while (i < docs) {
      val ts = epochs(i)
      if (ts >= fromEpoch && deviceSet(devices(i))) {
        val key = (devices(i), Math.floorDiv(ts, bucketSec) * bucketSec)
        out(key) = out.getOrElse(key, 0L) + 1
      }
      i += 1
    }
    out.toMap
  }

  def matches(rows: Array[Row], deviceSet: Set[String], fromEpoch: Long,
              bucketSec: Long, docs: Int): Boolean = {
    val got = rows.map(r => (r.getString(0), r.getAs[Number](1).longValue) -> r.getAs[Number](2).longValue)
    got.length == got.toMap.size && got.toMap == expected(deviceSet, fromEpoch, bucketSec, docs)
  }
}

/** Asserts that each timed Spark stage executes its work rather than being
  * pruned by the optimizer, by inspecting the optimized plan of exactly the
  * query the consumer loop collects. The seed's consumer timed
  * `scored.select("p_true", "prediction").count()`, whose optimized plan
  * drops the encoder and model UDFs; [[negativeControl]] shows the guard
  * tells the two apart. */
object PruningGuard {
  private def plan(df: DataFrame): String = df.queryExecution.optimizedPlan.toString

  private def udfCalls(p: String): Int = "UDF".r.findAllMatchIn(p).length

  /** Problems found, empty when every stage does its work. */
  def check(window: DataFrame, histogram: DataFrame, scored: DataFrame): Seq[String] = {
    val w = plan(window)
    val h = plan(histogram)
    val s = plan(scored)
    Seq(
      (w.contains("Aggregate [device_addr") && w.contains("device_addr"),
        s"window: distinct devices is not aggregated over the batch:\n$w"),
      (h.contains("Aggregate") && h.contains("count(1)") && h.contains("ts_epoch") &&
        h.contains("device_addr"),
        s"histogram: filter + count aggregate missing:\n$h"),
      // Encoder (feat_idx, features) and model (raw/probability, p_true) UDFs.
      (udfCalls(s) >= 3 && s.contains("p_true"),
        s"score: model/encoder UDFs pruned from the collected verdicts:\n$s"),
    ).collect { case (false, why) => why }
  }

  /** True when the seed's count()-style ML timer would be caught: its plan
    * carries fewer UDF calls than the collected verdicts. */
  def negativeControl(scored: DataFrame): Boolean =
    udfCalls(plan(scored.select("p_true", "prediction").groupBy().count())) <
      udfCalls(plan(scored.select(Verdict.Columns.map(org.apache.spark.sql.functions.col): _*)))
}
