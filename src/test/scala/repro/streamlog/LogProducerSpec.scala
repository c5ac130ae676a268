package repro.streamlog

import org.scalatest.funsuite.AnyFunSuite

class LogProducerSpec extends AnyFunSuite {

  private def mkEvents(n: Int): IndexedSeq[AlarmEvent] =
    (0 until n).map(i => AlarmEvent(i.toLong, s"dev-${i % 7}", "4001", 1451606400L + i,
      1 + i % 7, i % 24, "fire", "residential", "smoke_v1", "2.0.1", 10.0))

  test("sendAll appends every event") {
    val log = new EmbeddedLog(4)
    val p = new LogProducer(log, Serializers.FastJsonSerializer)
    p.sendAll(mkEvents(500))
    assert(log.totalRecords == 500)
  }

  test("events are partitioned by device address") {
    val log = new EmbeddedLog(4)
    val p = new LogProducer(log, Serializers.FastJsonSerializer)
    p.sendAll(mkEvents(200))
    val ser = Serializers.FastJsonSerializer
    for (part <- 0 until 4) {
      val devs = log.fetch(part, 0, 1000).map(ser.read(_).deviceAddr).distinct
      devs.foreach { d =>
        // No device may appear in any other partition.
        (0 until 4).filter(_ != part).foreach { other =>
          assert(!log.fetch(other, 0, 1000).map(ser.read(_).deviceAddr).contains(d))
        }
      }
    }
  }

  test("records round-trip through the log") {
    val log = new EmbeddedLog(1)
    val p = new LogProducer(log, Serializers.FastJsonSerializer)
    val events = mkEvents(50)
    p.sendAll(events)
    val back = log.fetch(0, 0, 100).map(Serializers.FastJsonSerializer.read)
    assert(back.toSet == events.toSet)
  }

  test("sendAll reports a positive throughput") {
    val log = new EmbeddedLog(2)
    val p = new LogProducer(log, Serializers.FastJsonSerializer)
    assert(p.sendAll(mkEvents(1000)) > 0)
  }
}
