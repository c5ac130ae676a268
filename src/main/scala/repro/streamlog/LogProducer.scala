package repro.streamlog

/** The handcrafted Producer application of Section 5.5.1: writes serialized
  * alarms into the log, optionally at a controlled rate (alarms/second), and
  * reports achieved throughput.
  */
final class LogProducer(log: EmbeddedLog, ser: AlarmSerializer) {

  /** Send one alarm, partitioned by device address. */
  def send(a: AlarmEvent): Unit = { log.appendKeyed(a.deviceAddr, ser.write(a)); () }

  /** Send a batch as fast as possible; returns achieved alarms/second. */
  def sendAll(events: IndexedSeq[AlarmEvent]): Double = {
    val t0 = System.nanoTime()
    var i = 0
    while (i < events.length) { send(events(i)); i += 1 }
    events.length / ((System.nanoTime() - t0) / 1e9)
  }

  /** Send at approximately `ratePerSec` (> 0), pacing in 10ms slices. */
  def sendPaced(events: IndexedSeq[AlarmEvent], ratePerSec: Double): Double = {
    require(ratePerSec > 0, s"ratePerSec must be positive, got $ratePerSec")
    val t0 = System.nanoTime()
    var i = 0
    while (i < events.length) {
      val due = t0 + (i / ratePerSec * 1e9).toLong
      val now = System.nanoTime()
      if (now < due) Thread.sleep(math.min(10L, (due - now) / 1000000L + 1))
      send(events(i)); i += 1
    }
    events.length / ((System.nanoTime() - t0) / 1e9)
  }
}
