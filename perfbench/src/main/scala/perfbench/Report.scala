package perfbench

import scala.collection.mutable

/** What one run measured and checked; rendered as the final JSON line. */
final class Report {
  val endToEnd = mutable.LinkedHashMap.empty[String, (Double, String)]
  val perLayer = mutable.LinkedHashMap.empty[String, (Double, String)]
  val context = mutable.LinkedHashMap.empty[String, Any]
  val problems = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed = 0L

  def e2e(name: String, value: Double, unit: String): Unit = endToEnd(name) = (value, unit)
  def layer(name: String, value: Double, unit: String): Unit = perLayer(name) = (value, unit)

  /** A failed check: the run is reported as incorrect. */
  def problem(what: String): Unit = problems += what

  def correct: Boolean = problems.isEmpty && failed == 0 && attempted > 0

  def resultLine(traced: Boolean): String = {
    val ms = (if (traced) perLayer else endToEnd).map { case (k, (v, u)) =>
      k -> mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> u)
    }
    Json(mutable.LinkedHashMap[String, Any]("correct" -> correct,
      "attempted" -> math.max(attempted, 1L), "failed" -> failed, "metrics" -> ms))
  }
}

object Json {
  def apply(v: Any): String = v match {
    case null                  => "null"
    case b: Boolean            => b.toString
    case d: Double             => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float              => apply(f.toDouble)
    case n: Int                => n.toString
    case n: Long               => n.toString
    case s: String             => quote(s)
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]       => xs.map(apply).mkString("[", ",", "]")
    case other                 => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    (sb += '"').toString
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs.toArray.sorted, 0.5)

  /** Linear-interpolated quantile of an ascending array. */
  def quantile(sorted: Array[Double], q: Double): Double =
    if (sorted.isEmpty) Double.NaN
    else {
      val pos = q * (sorted.length - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, sorted.length - 1)
      sorted(lo) + (sorted(hi) - sorted(lo)) * (pos - lo)
    }
}

/** Share of CPU time the hypervisor took from this machine's virtual CPUs
  * (the `steal` column of /proc/stat), so a reader can tell a slow run on a
  * busy host from a slow program. NaN where /proc/stat is unavailable. */
object CpuSteal {
  /** (steal, total) jiffies since boot. */
  def sample(): (Long, Long) =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try {
        val f = src.getLines().next().trim.split("\\s+").drop(1).map(_.toLong)
        (if (f.length > 7) f(7) else 0L, f.sum)
      } finally src.close()
    } catch { case _: Exception => (0L, 0L) }

  def share(since: (Long, Long)): Double = {
    val (s1, t1) = sample()
    if (t1 > since._2) (s1 - since._1).toDouble / (t1 - since._2) else Double.NaN
  }
}
