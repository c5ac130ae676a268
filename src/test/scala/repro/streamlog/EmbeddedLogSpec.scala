package repro.streamlog

import org.scalatest.funsuite.AnyFunSuite

class EmbeddedLogSpec extends AnyFunSuite {

  test("append returns increasing offsets per partition") {
    val log = new EmbeddedLog(2)
    assert(log.append(0, "a") == 0L)
    assert(log.append(0, "b") == 1L)
    assert(log.append(1, "c") == 0L)
  }

  test("fetch returns records in order from an offset") {
    val log = new EmbeddedLog(1)
    Seq("a", "b", "c", "d").foreach(log.append(0, _))
    assert(log.fetch(0, 1, 2) == IndexedSeq("b", "c"))
  }

  test("a fetched batch is a snapshot") {
    val log = new EmbeddedLog(1)
    Seq("a", "b").foreach(log.append(0, _))
    val got = log.fetch(0, 0, 10)
    Seq("c", "d").foreach(log.append(0, _))
    assert(got == IndexedSeq("a", "b"))
    assert(log.fetch(0, 0, 10) == IndexedSeq("a", "b", "c", "d"))
  }

  test("fetch beyond the end is empty") {
    val log = new EmbeddedLog(1)
    log.append(0, "a")
    assert(log.fetch(0, 5, 10).isEmpty)
  }

  test("fetch respects maxRecords") {
    val log = new EmbeddedLog(1)
    (0 until 100).foreach(i => log.append(0, i.toString))
    assert(log.fetch(0, 0, 7).size == 7)
  }

  test("partitions are isolated") {
    val log = new EmbeddedLog(3)
    log.append(0, "p0"); log.append(1, "p1")
    assert(log.fetch(0, 0, 10) == IndexedSeq("p0"))
    assert(log.fetch(1, 0, 10) == IndexedSeq("p1"))
    assert(log.fetch(2, 0, 10).isEmpty)
  }

  test("appendKeyed routes the same key to the same partition") {
    val log = new EmbeddedLog(4)
    (0 until 10).foreach(_ => log.appendKeyed("device-42", "r"))
    val nonEmpty = (0 until 4).count(p => log.endOffset(p) > 0)
    assert(nonEmpty == 1)
    assert(log.totalRecords == 10)
  }

  test("appendKeyed spreads different keys across partitions") {
    val log = new EmbeddedLog(4)
    (0 until 200).foreach(i => log.appendKeyed(s"device-$i", "r"))
    assert((0 until 4).count(p => log.endOffset(p) > 0) == 4)
  }

  test("a single-partition log serializes everything (the Kafka default)") {
    val log = new EmbeddedLog(1)
    (0 until 50).foreach(i => log.appendKeyed(s"k$i", i.toString))
    assert(log.endOffset(0) == 50)
  }

  test("zero partitions are rejected") {
    intercept[IllegalArgumentException] { new EmbeddedLog(0) }
  }

  test("concurrent producers lose no records") {
    val log = new EmbeddedLog(4)
    val threads = (0 until 8).map { t =>
      new Thread(() => (0 until 1000).foreach(i => log.appendKeyed(s"$t-$i", s"$t-$i")))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(log.totalRecords == 8000)
    val all = (0 until 4).flatMap(p => log.fetch(p, 0, 10000))
    assert(all.distinct.size == 8000)
  }

  test("consumer poll without commit redelivers the same records") {
    val log = new EmbeddedLog(2)
    (0 until 6).foreach(i => log.append(i % 2, s"r$i"))
    val c = new LogConsumer(log)
    val first  = c.poll(10).flatMap(_._2)
    val second = c.poll(10).flatMap(_._2)
    assert(first == second)
  }

  test("consumer poll after commit skips delivered records") {
    val log = new EmbeddedLog(1)
    (0 until 5).foreach(i => log.append(0, s"r$i"))
    val c = new LogConsumer(log)
    assert(c.poll(3).flatMap(_._2) == IndexedSeq("r0", "r1", "r2"))
    c.commit()
    assert(c.poll(10).flatMap(_._2) == IndexedSeq("r3", "r4"))
    c.commit()
    assert(c.poll(10).flatMap(_._2).isEmpty)
  }

  test("each record is delivered exactly once across poll/commit cycles") {
    val log = new EmbeddedLog(3)
    (0 until 100).foreach(i => log.appendKeyed(s"k$i", s"r$i"))
    val c = new LogConsumer(log)
    val seen = scala.collection.mutable.ArrayBuffer.empty[String]
    var n = 0
    while ({ val batch = c.poll(7).flatMap(_._2); seen ++= batch; c.commit(); n = batch.size; n > 0 }) ()
    assert(seen.size == 100)
    assert(seen.distinct.size == 100)
  }

  test("lag reflects uncommitted records") {
    val log = new EmbeddedLog(1)
    (0 until 10).foreach(i => log.append(0, s"$i"))
    val c = new LogConsumer(log)
    assert(c.lag == 10)
    c.poll(4); c.commit()
    assert(c.lag == 6)
    log.append(0, "x")
    assert(c.lag == 7)
  }

  test("committedOffsets tracks per-partition positions") {
    val log = new EmbeddedLog(2)
    log.append(0, "a"); log.append(0, "b"); log.append(1, "c")
    val c = new LogConsumer(log)
    c.poll(10); c.commit()
    assert(c.committedOffsets == IndexedSeq(2L, 1L))
  }
}
