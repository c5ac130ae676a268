package repro.streamlog

/** The handcrafted Producer application of Section 5.5.1: writes serialized
  * alarms into the log and reports achieved throughput.
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
}
