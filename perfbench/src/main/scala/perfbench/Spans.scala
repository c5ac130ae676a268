package perfbench

import scala.collection.mutable

/** Span recorder for the benchmark's own calls into the program's layers.
  *
  * Every span is timed, so the per-layer totals the end-to-end metrics need
  * (the log + codec time behind `consume_per_s`) cost two clock reads per
  * call. Span records (name, start, end, parent, batch) are kept in memory
  * only while [[recording]] is set, and written out when the run ends.
  */
final class Spans {
  import Spans.Span

  private val kept = mutable.ArrayBuffer.empty[Span]
  private val totals = mutable.LinkedHashMap.empty[String, Long]
  private var open = -1
  var recording = false

  def apply[A](name: String, batch: Long)(body: => A): A = {
    val idx = if (recording) { kept += null; kept.length - 1 } else -1
    val parent = open
    if (idx >= 0) open = idx
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      totals(name) = totals.getOrElse(name, 0L) + (t1 - t0)
      if (idx >= 0) { kept(idx) = Span(name, t0, t1, parent, batch); open = parent }
    }
  }

  /** Nanoseconds spent in spans called `name`, recorded or not. */
  def totalNs(name: String): Long = totals.getOrElse(name, 0L)

  def resetTotals(): Unit = totals.clear()

  def recorded: IndexedSeq[Span] = kept.toIndexedSeq

  /** Self time per span name over the recorded spans: a span's duration
    * minus the part of it its child spans cover. */
  def selfNs: Map[String, Long] = {
    val childNs = Array.fill(kept.length)(0L)
    kept.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    kept.indices.groupMapReduce(i => kept(i).name)(i => kept(i).durNs - childNs(i))(_ + _)
  }
}

object Spans {
  final case class Span(name: String, startNs: Long, endNs: Long, parent: Int, batch: Long) {
    def durNs: Long = endNs - startNs
  }

  /** The root span of one consumer batch; every layer span is its child. */
  val Batch = "batch"
}
