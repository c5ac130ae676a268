package perfbench

import repro.streamlog._
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.util.Random

/** The Fig. 11 path alone, without Spark: FastJson-produce a round of alarms
  * into a 4-partition log, then poll, read and commit all of them. Rounds
  * repeat on a fresh log until the run's seconds are spent; every decoded
  * alarm is compared with the one produced, outside the timers. An alarm's
  * latency runs from its send to the commit of the poll that delivered it. */
object CodecBench {
  val Partitions = 4
  val RoundAlarms = 100000
  /** 20K alarms per poll. */
  val MaxPerPartition = 5000
  val SetupReps = 3
  val WarmupSec = 1.5

  private val ser: AlarmSerializer = Serializers.FastJsonSerializer

  private val AlarmTypes = Vector("fire", "intrusion", "technical", "water", "panic")
  private val PropertyTypes = Vector("residential", "industrial", "commercial", "office",
    "warehouse", "public", "shop \"Am Markt\"")
  private val SensorTypes = Vector("smoke_v1", "smoke_v2", "motion_pir", "motion_mw",
    "glassbreak", "door_contact", "zone\\3")
  private val SwVersions = Vector("1.0.3", "1.2.0", "2.0.1", "2.1.4", "3.0.0")

  /** Seeded alarms shaped like the Sitasys records, including the odd quote
    * and backslash the codec must escape. */
  def alarms(seed: Long, n: Int): Array[AlarmEvent] = {
    val rng = new Random(seed)
    val devices = Array.tabulate(20000)(i => f"00:1a:${(i >> 16) & 0xff}%02x:${(i >> 8) & 0xff}%02x:${i & 0xff}%02x:00")
    val zips = Array.tabulate(900)(i => f"${1000 + i * 9}%04d")
    Array.tabulate(n) { i =>
      val trueAlarm = rng.nextDouble() < 0.4
      AlarmEvent(i.toLong, devices(rng.nextInt(devices.length)), zips(rng.nextInt(zips.length)),
        1443657600L + rng.nextInt(18316800), 1 + rng.nextInt(7), rng.nextInt(24),
        AlarmTypes(rng.nextInt(AlarmTypes.size)), PropertyTypes(rng.nextInt(PropertyTypes.size)),
        SensorTypes(rng.nextInt(SensorTypes.size)), SwVersions(rng.nextInt(SwVersions.size)),
        if (trueAlarm) 2700.0 * math.exp(rng.nextGaussian()) else 20.0 * math.exp(0.5 * rng.nextGaussian()))
    }
  }

  val SendChunk = 20000

  /** `LogProducer.sendAll` in chunks of [[SendChunk]]; (start, end) ns of each. */
  def sendChunks(producer: LogProducer, events: IndexedSeq[AlarmEvent]): Seq[(Long, Long)] =
    events.grouped(SendChunk).map { c =>
      val t0 = System.nanoTime()
      producer.sendAll(c)
      (t0, System.nanoTime())
    }.toSeq

  def chunkRates(chunks: Seq[(Long, Long)], events: Int): Seq[Double] =
    chunks.zipWithIndex.map { case ((t0, t1), c) =>
      math.min(SendChunk, events - c * SendChunk) / ((t1 - t0) / 1e9)
    }

  /** Untimed rounds for [[WarmupSec]]: JIT-compiles the codec and log paths. */
  def warmUp(events: IndexedSeq[AlarmEvent]): Unit = {
    val until = System.nanoTime() + (WarmupSec * 1e9).toLong
    while (System.nanoTime() < until) round(events, new Spans, traced = false)
  }

  private def label(e: AlarmEvent): Int = if (e.durationSec >= 60.0) 1 else 0

  def run(seed: Long, seconds: Int, traced: Boolean, spans: Spans, report: Report): Unit = {
    var events: IndexedSeq[AlarmEvent] = null
    val setups = (1 to SetupReps).map { _ =>
      val t0 = System.nanoTime()
      events = ArraySeq.unsafeWrapArray(alarms(seed, RoundAlarms))
      (System.nanoTime() - t0) / 1e9
    }
    report.e2e("setup_s", Stats.median(setups), "s")
    report.context ++= Seq("log_partitions" -> Partitions, "round_alarms" -> RoundAlarms,
      "setup_reps" -> SetupReps)

    warmUp(events)

    val rounds = mutable.ArrayBuffer.empty[Round]
    val cpu0 = CpuSteal.sample()
    var timedNs = 0L
    while (timedNs < seconds * 1000000000L || rounds.size < 3) {
      val r = round(events, spans, traced && rounds.size % 2 == 0)
      rounds += r
      timedNs += r.produceNs + r.consumeNs
    }
    spans.recording = false
    report.context("cpu_steal_share") = CpuSteal.share(cpu0)

    val ok = rounds.map(_.ok).sum
    val n = rounds.size.toLong * events.length
    report.attempted = n
    report.failed = n - ok
    if (rounds.exists(_.duplicates > 0)) report.problem("an alarm was delivered twice")

    report.e2e("verified_per_s", ok / (rounds.map(_.consumeNs).sum / 1e9), "1/s")
    report.e2e("verdict_accuracy", rounds.map(_.labelsKept).sum.toDouble / n, "share")
    // Latency quantiles are taken per round, then the median over rounds:
    // pooled, the p99 would be set by the one slowest round.
    val lat = rounds.toSeq.map(r => r.latencyMs.sorted)
    report.e2e("latency_p50_ms", Stats.median(lat.map(Stats.quantile(_, 0.5))), "ms")
    report.e2e("latency_p99_ms", Stats.median(lat.map(Stats.quantile(_, 0.99))), "ms")
    // Medians over 20K-alarm chunks and polls: one slow chunk or poll does
    // not move the run's figure.
    report.e2e("produce_per_s", Stats.median(rounds.toSeq.flatMap(_.produceRates)), "1/s")
    report.e2e("consume_per_s", Stats.median(rounds.toSeq.flatMap(_.pollRates)), "1/s")
    report.context ++= Seq("rounds" -> rounds.size, "latency_samples" -> lat.map(_.length).sum)

    // Per-layer: only the log and codec run here.
    val tracedRounds = rounds.filter(_.traced)
    val polls = spans.recorded.count(_.name == Spans.Batch).max(1).toDouble
    val alarmsTraced = math.max(1L, tracedRounds.size.toLong * events.length).toDouble
    val self = spans.selfNs.withDefaultValue(0L)
    val wallNs = spans.recorded.filter(_.name == Spans.Batch).map(_.durNs).sum.toDouble
    report.layer("streamlog.write_us_per_alarm", self("streamlog.write") / 1e3 / alarmsTraced, "us")
    report.layer("streamlog.poll_us_per_alarm", self("streamlog.poll") / 1e3 / alarmsTraced, "us")
    report.layer("streamlog.read_us_per_alarm", self("streamlog.read") / 1e3 / alarmsTraced, "us")
    report.layer("streamlog.commit_us_per_batch", self("streamlog.commit") / 1e3 / polls, "us")
    report.layer("streamlog.lag_max", events.length.toDouble, "count")
    report.layer("bench.generator_late_ms_max", 0.0, "ms")
    for (k <- Seq("core.window_ms_per_batch", "core.alarms_per_batch", "core.devices_per_batch",
                  "docstore.histogram_ms_per_batch", "docstore.histogram_rows",
                  "docstore.history_docs", "docstore.ingest_ms_per_batch", "ml.score_ms_per_batch"))
      report.layer(k, 0.0, if (k.endsWith("_ms_per_batch")) "ms" else "count")
    report.layer("ml.verdicts_per_polled", ok.toDouble / n, "ratio")
    report.layer("setup.synth_s", Stats.median(setups), "s")
    for (k <- Seq("setup.prepare_s", "setup.fit_s", "setup.history_ingest_s", "setup.reference_s"))
      report.layer(k, 0.0, "s")
    ConsumerBench.shares(report, spans, ConsumerBench.Layers, wallNs,
      rounds.toSeq.flatMap(r => r.pollWallNs.map(w => (r.traced, w))))
  }

  final class Round(val produceNs: Long, val produceRates: Seq[Double], val consumeNs: Long,
                    val pollRates: Seq[Double], val pollWallNs: Seq[Long], val latencyMs: Array[Double],
                    val ok: Long, val labelsKept: Long, val duplicates: Long, val traced: Boolean)

  /** One timed round. The decoded alarms and their latencies are worked out
    * after the timers stop; ok counts alarms decoded exactly once and equal
    * to the one produced. */
  private def round(events: IndexedSeq[AlarmEvent], spans: Spans, traced: Boolean): Round = {
    // Start every round with an empty young generation: a round allocates
    // less than it holds, so no collection pause lands inside the timers.
    System.gc()
    val log = new EmbeddedLog(Partitions)
    val producer = new LogProducer(log, ser)
    spans.recording = traced
    val t0 = System.nanoTime()
    val chunks = spans("streamlog.write", -1) { sendChunks(producer, events) }
    val t1 = System.nanoTime()

    val consumer = new LogConsumer(log)
    val decoded = new Array[AlarmEvent](events.length)
    val pollOf = new Array[Int](events.length)
    val commitNs = mutable.ArrayBuffer.empty[Long]
    val polled = mutable.ArrayBuffer.empty[Int]
    val walls = mutable.ArrayBuffer.empty[Long]
    var duplicates = 0L
    var more = true
    val t2 = System.nanoTime()
    while (more) {
      val b = commitNs.length
      val p0 = System.nanoTime()
      val got = spans(Spans.Batch, b) {
        val recs = spans("streamlog.poll", b) { consumer.poll(MaxPerPartition) }
        val n = spans("streamlog.read", b) {
          var n = 0
          recs.foreach { case (_, part) =>
            part.foreach { s =>
              val e = ser.read(s)
              val k = e.id.toInt
              if (decoded(k) != null) duplicates += 1
              decoded(k) = e
              pollOf(k) = b
              n += 1
            }
          }
          n
        }
        spans("streamlog.commit", b) { consumer.commit() }
        n
      }
      val p1 = System.nanoTime()
      commitNs += p1
      polled += got
      walls += p1 - p0
      more = got > 0
    }
    val t3 = System.nanoTime()
    spans.recording = false
    require(consumer.lag == 0, "a round left a backlog")

    var ok = 0L
    var labelsKept = 0L
    val latencyMs = new Array[Double](events.length)
    var k = 0
    while (k < events.length) {
      val d = decoded(k)
      if (d == events(k)) ok += 1
      if (d != null && label(d) == label(events(k))) labelsKept += 1
      // Send time, interpolated within the alarm's chunk.
      val (c0, c1) = chunks(k / SendChunk)
      val first = k / SendChunk * SendChunk
      val len = math.min(SendChunk, events.length - first)
      val sentNs = c0 + (c1 - c0) * (k - first) / len
      latencyMs(k) = (commitNs(pollOf(k)) - sentNs) / 1e6
      k += 1
    }
    val full = polled.indices.filter(polled(_) > 0)
    new Round(t1 - t0, chunkRates(chunks, events.length), t3 - t2,
      full.map(i => polled(i) / (walls(i) / 1e9)), full.map(walls), latencyMs,
      ok - duplicates, labelsKept, duplicates, traced)
  }
}
