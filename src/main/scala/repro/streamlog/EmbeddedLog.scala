package repro.streamlog

import java.util.Arrays
import scala.collection.immutable.ArraySeq

/** Kafka stand-in (Section 4.2(1)): a partitioned, append-only, offset-based
  * in-memory log.
  *
  * It reproduces the Kafka properties the paper's experiments depend on:
  *  - records live in numbered partitions; a stream created with one
  *    partition is consumed serially — the paper's "by default, Kafka
  *    streams are not partitioned" bottleneck (Section 5.5.2) — while a
  *    repartitioned stream can be drained in parallel;
  *  - consumers address records by (partition, offset) and commit offsets
  *    after processing, giving the exactly-once semantics the alarm use
  *    case requires (no alarm missed, none processed twice);
  *  - records are opaque serialized strings, so the serializer choice
  *    (Fig. 11) is a pluggable concern of producer/consumer, not the log.
  */
final class EmbeddedLog(val numPartitions: Int) {
  require(numPartitions > 0, "a log needs at least one partition")

  /** One partition: its records are `recs(0 until size)`; `recs` doubles
    * when full. Guarded by the partition's own lock. */
  private final class Partition {
    var recs = new Array[String](16)
    var size = 0
  }

  private val parts: Array[Partition] = Array.fill(numPartitions)(new Partition)

  /** Append to an explicit partition; returns the record's offset. */
  def append(partition: Int, record: String): Long = {
    val p = parts(partition)
    p.synchronized {
      if (p.size == p.recs.length) p.recs = Arrays.copyOf(p.recs, 2 * p.size)
      p.recs(p.size) = record
      p.size += 1
      (p.size - 1).toLong
    }
  }

  /** Append partitioned by key hash (Kafka's default partitioner). */
  def appendKeyed(key: String, record: String): Long =
    append(math.floorMod(key.hashCode, numPartitions), record)

  /** First offset past the end of a partition. */
  def endOffset(partition: Int): Long = {
    val p = parts(partition)
    p.synchronized { p.size.toLong }
  }

  def totalRecords: Long = (0 until numPartitions).map(endOffset).sum

  /** Fetch up to `maxRecords` records of `partition` starting at `offset`,
    * copied once into an immutable snapshot that later appends do not touch. */
  def fetch(partition: Int, offset: Long, maxRecords: Int): IndexedSeq[String] = {
    val p = parts(partition)
    p.synchronized {
      val from = math.min(offset, p.size.toLong).toInt
      val to   = math.min(from.toLong + maxRecords, p.size.toLong).toInt
      ArraySeq.unsafeWrapArray(Arrays.copyOfRange(p.recs, from, to))
    }
  }
}

/** Offset-tracking consumer with commit semantics: records returned by
  * [[poll]] are only skipped on the next poll after [[commit]] — a crash
  * before commit re-reads them, never losing an alarm (at-least-once which,
  * combined with idempotent downstream writes keyed by alarm id, yields the
  * paper's exactly-once processing).
  */
final class LogConsumer(log: EmbeddedLog) {
  private val committed = Array.fill(log.numPartitions)(0L)
  private val pending   = Array.fill(log.numPartitions)(0L)

  /** Read up to `maxPerPartition` records from every partition. */
  def poll(maxPerPartition: Int): IndexedSeq[(Int, IndexedSeq[String])] = synchronized {
    (0 until log.numPartitions).map { p =>
      val recs = log.fetch(p, committed(p), maxPerPartition)
      pending(p) = committed(p) + recs.size
      (p, recs)
    }
  }

  /** Acknowledge everything delivered by the last poll. */
  def commit(): Unit = synchronized {
    var p = 0
    while (p < log.numPartitions) { committed(p) = pending(p); p += 1 }
  }

  def committedOffsets: IndexedSeq[Long] = synchronized { committed.toIndexedSeq }

  def lag: Long = synchronized {
    (0 until log.numPartitions).map(p => log.endOffset(p) - committed(p)).sum
  }
}
