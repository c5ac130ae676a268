package perfbench

import java.util.concurrent.atomic.AtomicLong
import java.util.concurrent.locks.LockSupport
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.{AlarmPipeline, Reports, VerificationService}
import repro.data.{AlarmSynth, LabeledAlarm}
import repro.docstore.{AlarmHistory, DocStore}
import repro.ml.{Hyperparams, SparkClassifiers}
import repro.streamlog._
import scala.collection.mutable
import scala.util.Random

/** The two consumer workloads. Both drive the alarm-verification path through
  * the program's public calls, one batch at a time:
  *
  *   LogConsumer.poll → AlarmSerializer.read → batch DataFrame + distinct
  *   devices → AlarmHistory.histogram → VerificationService.verify →
  *   (AlarmHistory.ingest) → LogConsumer.commit
  *
  * and every stage's output is collected, so no stage can be pruned. Verdicts
  * and histogram rows are checked after the run, outside every timer.
  */
object ConsumerBench {

  /** A consumer workload's fixed shape. The partition count is recorded with
    * every result: the log partition is the unit of parallelism. Spark runs
    * `sparkThreads` task threads with as many shuffle partitions. */
  final case class Shape(sf: Double, model: String, partitions: Int, maxPerPartition: Int,
                         backlog: Int, ratePerSec: Double, writeBack: Boolean, sparkThreads: Int)

  /** Closed loop: a deep backlog drained as fast as the consumer goes, one
    * Spark thread per log partition. */
  val DrainBacklog = Shape(sf = 0.03, model = "RF", partitions = 4, maxPerPartition = 3000,
    backlog = 240000, ratePerSec = 0, writeBack = false, sparkThreads = 4)

  /** Open loop on Kafka's default single partition, verified batches written
    * back into the history. Batches of a few hundred alarms are bound by
    * Spark's per-job fixed cost, not by its parallelism; two task threads
    * leave two cores to the generator, the consumer thread and the collector. */
  val PacedWriteback = Shape(sf = 0.01, model = "LR", partitions = 1, maxPerPartition = 1 << 20,
    backlog = 0, ratePerSec = 1000, writeBack = true, sparkThreads = 2)

  /** `paced_writeback` runs `--seconds / EpisodeSec` episodes of this length. */
  val EpisodeSec = 4
  val BucketSec = 3600L
  val HistoryWindowSec: Long = 30L * 86400
  val SetupReps = 3
  val WarmupBatches = 2
  val WarmupEpisodes = 2
  /** An open-loop run fails when the backlog exceeds this many seconds of
    * arrivals, or the generator runs later than [[MaxGeneratorLateMs]]. */
  val MaxLagSec = 5.0
  val MaxGeneratorLateMs = 1000.0

  private val ser: AlarmSerializer = Serializers.FastJsonSerializer

  /** The batch DataFrame, with the column names the encoder and history use. */
  def frame(spark: SparkSession, events: Seq[AlarmEvent]): DataFrame = {
    import spark.implicits._
    spark.createDataset(events).toDF().select(
      col("id"), col("deviceAddr").as("device_addr"), col("zip"),
      col("tsEpoch").as("ts_epoch"), col("dayOfWeek").as("day_of_week"),
      col("hourOfDay").as("hour_of_day"), col("alarmType").as("alarm_type"),
      col("propertyType").as("property_type"), col("sensorType").as("sensor_type"),
      col("swVersion").as("sw_version"), col("durationSec").as("duration_sec"))
  }

  // The three Spark queries the loop collects; the pruning guard inspects
  // exactly these.
  def windowQuery(batch: DataFrame): DataFrame = batch.select("device_addr").distinct()
  def histogramQuery(h: AlarmHistory, devices: Seq[String], fromEpoch: Long): DataFrame =
    h.histogram(devices, fromEpoch, BucketSec)
  def scoreQuery(s: VerificationService, batch: DataFrame): DataFrame =
    s.verify(batch).select(Verdict.Columns.map(col): _*)

  /** Everything set-up builds: the distinct alarms, the model, the history
    * and the oracles. */
  final class Prepared(val base: Array[AlarmEvent], val labels: Array[Int], val order: Array[Int],
                       val service: VerificationService, val store: DocStore,
                       val history: AlarmHistory, val docs: HistogramOracle,
                       val reference: Array[Verdict]) {
    /** The k-th alarm of the workload: the base alarms cycled in a seeded order. */
    def event(k: Long): AlarmEvent = base(baseOf(k)).copy(id = k)
    def baseOf(k: Long): Int = order((k % order.length).toInt)
    def oracle: VerdictOracle = new VerdictOracle(reference, baseOf, labels)
  }

  private def timed[A](times: mutable.Map[String, Double], name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val a = body
    times(name) = (System.nanoTime() - t0) / 1e9
    a
  }

  def setUp(spark: SparkSession, shape: Shape, seed: Long,
            times: mutable.Map[String, Double]): Prepared = {
    import spark.implicits._
    val (labeled, rows) = timed(times, "setup.synth_s") {
      val df = AlarmPipeline.labelByDuration(AlarmSynth.sitasys(spark, shape.sf, seed = seed), 1).cache()
      (df, df.as[LabeledAlarm].collect().sortBy(_.id))
    }
    val prepared = timed(times, "setup.prepare_s") {
      AlarmPipeline.prepare(labeled, AlarmPipeline.featuresFor("sitasys"))
    }
    val model = timed(times, "setup.fit_s") {
      val knobs = Reports.MlKnobs()
      val clf = shape.model match {
        case "RF" => SparkClassifiers.RandomForest(
          Hyperparams.RandomForestParams(knobs.rfMaxDepth, knobs.rfNumTrees))
        case "LR" => SparkClassifiers.Logistic()
      }
      clf.fit(prepared.train)
    }
    prepared.train.unpersist(); prepared.test.unpersist()
    labeled.unpersist()
    val service = new VerificationService(prepared.encoder, model)

    val base = rows.map(r => AlarmEvent(r.id, r.device_addr, r.zip,
      Math.floorDiv(r.ts.getTime, 1000L), r.day_of_week, r.hour_of_day, r.alarm_type,
      r.property_type, r.sensor_type, r.sw_version, r.duration_sec))
    require(base.indices.forall(i => base(i).id == i), "synth ids are not 0..n-1")
    val h = timed(times, "setup.history_ingest_s") { freshHistory(spark, base) }
    val reference = timed(times, "setup.reference_s") {
      val out = new Array[Verdict](base.length)
      scoreQuery(service, frame(spark, base.toIndexedSeq)).collect()
        .foreach { r => val v = Verdict.of(r); out(v.id.toInt) = v }
      out
    }
    val order = new Random(seed ^ 0x5DEECE66DL).shuffle(base.indices.toVector).toArray
    new Prepared(base, rows.map(_.label), order, service, h.store, h.history, h.docs, reference)
  }

  /** A history store and its plain-Scala oracle. */
  final class History(val store: DocStore, val history: AlarmHistory, val docs: HistogramOracle)

  /** A new history holding every distinct alarm of the workload once. */
  def freshHistory(spark: SparkSession, base: Array[AlarmEvent]): History = {
    val store = new DocStore(spark)
    val history = new AlarmHistory(spark, store)
    history.ingest(frame(spark, base.toIndexedSeq))
    val docs = new HistogramOracle
    base.foreach(e => docs.add(e.deviceAddr, e.tsEpoch))
    new History(store, history, docs)
  }

  /** What one batch produced; checked after the run. */
  final class Batch(val pollNs: Long, val collectedNs: Long, val endNs: Long,
                    val events: IndexedSeq[AlarmEvent], val devices: Array[String],
                    val fromEpoch: Long, val hist: Array[Row], val docsAtQuery: Int,
                    val verdicts: Array[Verdict], val lagAtPoll: Long, val streamlogNs: Long,
                    val traced: Boolean) {
    def wallNs: Long = endNs - pollNs
  }

  /** The consumer loop over one log. */
  final class Loop(spark: SparkSession, log: EmbeddedLog, p: Prepared, history: AlarmHistory,
                   docs: HistogramOracle, shape: Shape, spans: Spans) {
    private val consumer = new LogConsumer(log)
    private var nextBatch = 0L

    def lag: Long = consumer.lag

    /** Consume one batch; None when the poll returned nothing. */
    def step(): Option[Batch] = {
      val b = nextBatch
      val logNs0 = streamlogNs(spans)
      val pollNs = System.nanoTime()
      var collectedNs = 0L
      val out = spans(Spans.Batch, b) {
        val polled = spans("streamlog.poll", b) { consumer.poll(shape.maxPerPartition) }
        val lagAtPoll = consumer.lag
        val events = spans("streamlog.read", b) { polled.flatMap(_._2).map(ser.read) }
        if (events.isEmpty) { consumer.commit(); None }
        else {
          val (batchDf, devices) = spans("core.window", b) {
            val df = frame(spark, events).cache()
            (df, windowQuery(df).collect().map(_.getString(0)))
          }
          val fromEpoch = events.iterator.map(_.tsEpoch).min - HistoryWindowSec
          val docsAtQuery = docs.size
          val hist = spans("docstore.histogram", b) {
            histogramQuery(history, devices.toSeq, fromEpoch).collect()
          }
          val verdicts = spans("ml.score", b) { scoreQuery(p.service, batchDf).collect() }
          collectedNs = System.nanoTime()
          if (shape.writeBack) spans("docstore.ingest", b) { history.ingest(batchDf) }
          spans("core.window", b) { batchDf.unpersist() }
          spans("streamlog.commit", b) { consumer.commit() }
          Some((events, devices, fromEpoch, hist, docsAtQuery, verdicts, lagAtPoll))
        }
      }
      val endNs = System.nanoTime()
      nextBatch += 1
      out.map { case (events, devices, fromEpoch, hist, docsAtQuery, verdicts, lagAtPoll) =>
        if (shape.writeBack) events.foreach(e => docs.add(e.deviceAddr, e.tsEpoch))
        new Batch(pollNs, collectedNs, endNs, events, devices, fromEpoch, hist, docsAtQuery,
          verdicts.map(Verdict.of), lagAtPoll, streamlogNs(spans) - logNs0, spans.recording)
      }
    }
  }

  /** Checks every batch against the oracles. Returns the verdicts that
    * matched, per batch, and how many verdicts agree with the label. */
  private def check(batches: Seq[Batch], p: Prepared, docs: HistogramOracle,
                    report: Report): (Seq[Long], Long) = {
    val oracle = p.oracle
    var agree = 0L
    val ok = batches.map { b =>
      val polledIds = b.events.iterator.map(_.id).toSet
      val good = b.verdicts.count(v => polledIds(v.id) && oracle.check(v))
      agree += b.verdicts.count(oracle.agreesWithLabel)
      val histOk = docs.matches(b.hist, b.devices.toSet, b.fromEpoch, BucketSec, b.docsAtQuery)
      val distinctDevices = b.devices.toSet == b.events.iterator.map(_.deviceAddr).toSet &&
        b.devices.length == b.devices.toSet.size
      if (!histOk) report.problem(s"histogram rows differ from the oracle (batch of ${b.events.size})")
      if (!distinctDevices) report.problem("window devices differ from the batch's distinct devices")
      val batchOk = if (histOk && distinctDevices) good.toLong else 0L
      report.failed += b.events.size - batchOk
      batchOk
    }
    (ok, agree)
  }

  private def guard(spark: SparkSession, p: Prepared, report: Report): Unit = {
    val sample = (0 until 2000).map(k => p.event(k.toLong))
    // Cached as in the loop: over an uncached local relation the optimizer
    // would evaluate the whole query at planning time.
    val df = frame(spark, sample).cache()
    val devices = sample.map(_.deviceAddr).distinct
    val problems = PruningGuard.check(windowQuery(df),
      histogramQuery(p.history, devices, sample.map(_.tsEpoch).min - HistoryWindowSec),
      scoreQuery(p.service, df))
    problems.foreach(report.problem)
    println(s"pruning guard: ${if (problems.isEmpty) "every timed stage executes its work" else "FAILED"}; " +
      s"seed count() timer caught: ${PruningGuard.negativeControl(p.service.verify(df))}")
    df.unpersist()
  }

  /** Runs `SetupReps` set-ups and keeps the last; records the median times. */
  private def setUpReps[A](spark: SparkSession, shape: Shape, seed: Long, report: Report)
      (afterEach: Prepared => A): (Prepared, Seq[A]) = {
    var last: Prepared = null
    val runs = (1 to SetupReps).map { _ =>
      val times = mutable.LinkedHashMap.empty[String, Double]
      val t0 = System.nanoTime()
      last = setUp(spark, shape, seed, times)
      val extra = afterEach(last)
      times("setup_s") = (System.nanoTime() - t0) / 1e9
      System.err.println(s"set-up: ${Json(times)}")
      (times, extra)
    }
    report.e2e("setup_s", Stats.median(runs.map(_._1("setup_s"))), "s")
    for (k <- Seq("setup.synth_s", "setup.prepare_s", "setup.fit_s",
                  "setup.history_ingest_s", "setup.reference_s"))
      report.layer(k, Stats.median(runs.map(_._1(k))), "s")
    report.context ++= Seq("sf" -> shape.sf, "model" -> shape.model,
      "log_partitions" -> shape.partitions, "alarms_distinct" -> last.base.length,
      "history_docs_start" -> last.store.count("alarms"), "setup_reps" -> SetupReps)
    (last, runs.map(_._2))
  }

  // ---------------------------------------------------------------------------

  def drainBacklog(spark: SparkSession, seed: Long, seconds: Int, traced: Boolean,
                   spans: Spans, report: Report): Unit = {
    val shape = DrainBacklog
    var nextId = 0L
    var log: EmbeddedLog = null
    def fill(p: Prepared): Seq[Double] = {
      log = new EmbeddedLog(shape.partitions)
      val events = (0 until shape.backlog).map(i => p.event(nextId + i))
      nextId += shape.backlog
      CodecBench.chunkRates(CodecBench.sendChunks(new LogProducer(log, ser), events), events.size)
    }
    // The backlog fill is timed, so compile the codec and log paths first.
    CodecBench.warmUp(CodecBench.alarms(seed, CodecBench.RoundAlarms).toIndexedSeq)
    val (p, produceRates) = setUpReps(spark, shape, seed, report) { p => nextId = 0; fill(p) }
    guard(spark, p, report)

    var loop = new Loop(spark, log, p, p.history, p.docs, shape, spans)
    (1 to WarmupBatches).foreach(_ => loop.step())
    val cpu0 = CpuSteal.sample()
    spans.resetTotals()

    val batches = mutable.ArrayBuffer.empty[Batch]
    var wallNs = 0L
    var i = 0
    while (wallNs < seconds * 1000000000L) {
      spans.recording = traced && i % 2 == 0
      loop.step() match {
        case Some(b) => batches += b; wallNs += b.wallNs; i += 1
        case None    => fill(p); loop = new Loop(spark, log, p, p.history, p.docs, shape, spans)
      }
    }
    spans.recording = false
    report.context("cpu_steal_share") = CpuSteal.share(cpu0)

    val (ok, agree) = check(batches.toSeq, p, p.docs, report)
    report.attempted = batches.map(_.events.size.toLong).sum
    val lat = latencies(batches.toSeq.map(b => (b.collectedNs - b.pollNs, b.events.size)))
    // Rates are medians over batches (produce: over 20K-alarm chunks), so
    // a collection pause in one batch does not move the run's figure.
    report.e2e("verified_per_s", Stats.median(batches.toSeq.zip(ok).map { case (b, k) => k / (b.wallNs / 1e9) }), "1/s")
    report.e2e("verdict_accuracy", agree.toDouble / math.max(1L, batches.map(_.verdicts.length.toLong).sum), "share")
    report.e2e("latency_p50_ms", Stats.quantile(lat, 0.5), "ms")
    report.e2e("latency_p99_ms", Stats.quantile(lat, 0.99), "ms")
    report.e2e("produce_per_s", Stats.median(produceRates.flatten), "1/s")
    report.e2e("consume_per_s", Stats.median(batches.toSeq.map(b => b.events.size / (b.streamlogNs / 1e9))), "1/s")
    report.context ++= Seq("batches" -> batches.size, "latency_samples" -> lat.length,
      "history_docs_end" -> p.store.count("alarms"))
    layerMetrics(report, spans, batches.toSeq, writeUsPerAlarm = 1e6 / Stats.median(produceRates.flatten),
      lagMax = batches.map(_.lagAtPoll).max, lateMsMax = 0, historyDocs = p.store.count("alarms"))
  }

  def pacedWriteback(spark: SparkSession, seed: Long, seconds: Int, traced: Boolean,
                     spans: Spans, report: Report): Unit = {
    val shape = PacedWriteback
    val (p, _) = setUpReps(spark, shape, seed, report)(_ => ())
    guard(spark, p, report)

    val n = (shape.ratePerSec * EpisodeSec).toInt
    val count = math.max(1, seconds / EpisodeSec)
    // Untimed warm-up episodes: until the JIT and Spark have compiled the
    // loop's code, the first episodes run markedly slower than later ones.
    (1 to WarmupEpisodes).foreach(w => episode(spark, p, shape, (count + w).toLong * n, n, traced = false, spans))
    spans.resetTotals()

    val cpu0 = CpuSteal.sample()
    val episodes = (0 until count).map(e => episode(spark, p, shape, e.toLong * n, n, traced, spans))
    report.context("cpu_steal_share") = CpuSteal.share(cpu0)

    var ok = 0L
    var agree = 0L
    episodes.foreach { ep =>
      val (good, a) = check(ep.batches, p, ep.history.docs, report)
      ok += good.sum
      agree += a
      val received = ep.batches.map(_.events.size).sum
      if (received != n) report.problem(s"consumed $received of $n generated alarms")
    }
    val batches = episodes.flatMap(_.batches)
    val received = batches.map(_.events.size).sum
    report.attempted = count.toLong * n
    val lagMax = if (batches.isEmpty) 0L else batches.map(_.lagAtPoll).max
    val lateMs = episodes.map(_.lateMs).max
    val overloaded = lagMax > shape.ratePerSec * MaxLagSec || lateMs > MaxGeneratorLateMs
    if (overloaded) {
      report.problem(f"open loop not sustained: lag max $lagMax, generator late by $lateMs%.1f ms")
      report.failed = report.attempted
    }
    val wallS = episodes.map(_.wallNs).sum / 1e9
    // Open loop: throughput is the offered rate while the consumer keeps up.
    report.e2e("verified_per_s", ok / wallS, "1/s")
    report.e2e("verdict_accuracy", agree.toDouble / math.max(1, received), "share")
    // Latency quantiles are taken per episode, then the median over episodes:
    // pooled, the p99 would be set by the one slowest batch of the run.
    report.e2e("latency_p50_ms", Stats.median(episodes.map(e => Stats.quantile(e.latencyMs, 0.5))), "ms")
    report.e2e("latency_p99_ms", Stats.median(episodes.map(e => Stats.quantile(e.latencyMs, 0.99))), "ms")
    report.e2e("produce_per_s", report.attempted / (episodes.map(_.sendWallNs).sum / 1e9), "1/s")
    report.e2e("consume_per_s", received / wallS, "1/s")
    val docsEnd = episodes.last.history.store.count("alarms")
    report.context ++= Seq("batches" -> batches.size, "latency_samples" -> received,
      "rate_per_s" -> shape.ratePerSec, "episodes" -> count, "episode_alarms" -> n,
      "episode_p50_ms" -> episodes.map(e => Stats.quantile(e.latencyMs, 0.5)),
      "episode_p99_ms" -> episodes.map(e => Stats.quantile(e.latencyMs, 0.99)),
      "history_docs_end" -> docsEnd)
    layerMetrics(report, spans, batches, writeUsPerAlarm = episodes.map(_.sendNs).sum / 1e3 / report.attempted,
      lagMax = lagMax, lateMsMax = lateMs, historyDocs = docsEnd)
  }

  /** What one open-loop episode produced; `latencyMs` is ascending. */
  final class Episode(val batches: Seq[Batch], val history: History, val latencyMs: Array[Double],
                      val wallNs: Long, val sendWallNs: Long, val sendNs: Long, val lateMs: Double)

  /** One open-loop episode: a single generator thread sends alarms
    * `firstId until firstId + n` on a fixed schedule into a fresh log, and the
    * loop consumes them into a fresh history that starts at its set-up size.
    * An alarm's latency runs from its scheduled send to its verdict. */
  private def episode(spark: SparkSession, p: Prepared, shape: Shape, firstId: Long, n: Int,
                      traced: Boolean, spans: Spans): Episode = {
    val history = freshHistory(spark, p.base)
    val log = new EmbeddedLog(shape.partitions)
    val producer = new LogProducer(log, ser)
    val events = (0 until n).map(k => p.event(firstId + k))
    val periodNs = 1e9 / shape.ratePerSec
    val lateMaxNs = new AtomicLong(0)
    val sendNs = new AtomicLong(0)
    val startNs = System.nanoTime() + 20000000L
    def dueNs(k: Long): Long = startNs + (k * periodNs).toLong
    @volatile var lastSendNs = 0L
    val generator = new Thread(() => {
      var k = 0
      while (k < n) {
        val due = dueNs(k)
        var now = System.nanoTime()
        while (now < due) { LockSupport.parkNanos(due - now); now = System.nanoTime() }
        lateMaxNs.accumulateAndGet(now - due, math.max)
        producer.send(events(k))
        val sent = System.nanoTime()
        sendNs.addAndGet(sent - now)
        k += 1
        if (k == n) lastSendNs = sent
      }
    }, "alarm-generator")
    generator.setDaemon(true)

    val loop = new Loop(spark, log, p, history.history, history.docs, shape, spans)
    val batches = mutable.ArrayBuffer.empty[Batch]
    generator.start()
    var i = 0
    while (generator.isAlive || loop.lag > 0) {
      spans.recording = traced && i % 2 == 0
      loop.step() match {
        case Some(b) => batches += b; i += 1
        case None    => LockSupport.parkNanos(1000000L)
      }
    }
    spans.recording = false
    generator.join()
    val lat = batches.iterator.flatMap(b => b.events.map(e => (b.collectedNs - dueNs(e.id - firstId)) / 1e6))
      .toArray.sorted
    val endNs = if (batches.isEmpty) System.nanoTime() else batches.last.endNs
    new Episode(batches.toSeq, history, lat, endNs - startNs, lastSendNs - startNs, sendNs.get,
      lateMaxNs.get / 1e6)
  }

  /** Per-alarm latencies in ms, from (batch latency ns, alarms) pairs. */
  private def latencies(perBatch: Seq[(Long, Int)]): Array[Double] =
    perBatch.flatMap { case (ns, k) => Iterator.fill(k)(ns / 1e6) }.toArray.sorted

  private def streamlogNs(spans: Spans): Long =
    Seq("streamlog.poll", "streamlog.read", "streamlog.commit").map(spans.totalNs).sum

  val Layers: Seq[String] = Seq("streamlog.poll", "streamlog.read", "streamlog.commit",
    "core.window", "docstore.histogram", "docstore.ingest", "ml.score")

  /** Per-layer metrics of the traced batches (every other batch). */
  def layerMetrics(report: Report, spans: Spans, batches: Seq[Batch], writeUsPerAlarm: Double,
                   lagMax: Long, lateMsMax: Double, historyDocs: Long): Unit = {
    val self = spans.selfNs.withDefaultValue(0L)
    val traced = batches.filter(_.traced)
    val nb = math.max(1, traced.size).toDouble
    val alarms = math.max(1L, traced.map(_.events.size.toLong).sum).toDouble
    val wallNs = spans.recorded.filter(_.name == Spans.Batch).map(_.durNs).sum.toDouble
    report.layer("streamlog.write_us_per_alarm", writeUsPerAlarm, "us")
    report.layer("streamlog.poll_us_per_alarm", self("streamlog.poll") / 1e3 / alarms, "us")
    report.layer("streamlog.read_us_per_alarm", self("streamlog.read") / 1e3 / alarms, "us")
    report.layer("streamlog.commit_us_per_batch", self("streamlog.commit") / 1e3 / nb, "us")
    report.layer("streamlog.lag_max", lagMax.toDouble, "count")
    report.layer("bench.generator_late_ms_max", lateMsMax, "ms")
    report.layer("core.window_ms_per_batch", self("core.window") / 1e6 / nb, "ms")
    report.layer("core.alarms_per_batch", alarms / nb, "count")
    report.layer("core.devices_per_batch", traced.map(_.devices.length).sum / nb, "count")
    report.layer("docstore.histogram_ms_per_batch", self("docstore.histogram") / 1e6 / nb, "ms")
    report.layer("docstore.histogram_rows", traced.map(_.hist.length).sum / nb, "count")
    report.layer("docstore.history_docs", historyDocs.toDouble, "count")
    report.layer("docstore.ingest_ms_per_batch", self("docstore.ingest") / 1e6 / nb, "ms")
    report.layer("ml.score_ms_per_batch", self("ml.score") / 1e6 / nb, "ms")
    report.layer("ml.verdicts_per_polled", traced.map(_.verdicts.length).sum / alarms, "ratio")
    shares(report, spans, Layers, wallNs, batches.map(b => (b.traced, b.wallNs)))
  }

  /** Layer shares of batch wall, trace coverage and trace overhead. */
  def shares(report: Report, spans: Spans, layers: Seq[String], wallNs: Double,
             walls: Seq[(Boolean, Long)]): Unit = {
    val self = spans.selfNs.withDefaultValue(0L)
    val w = math.max(1.0, wallNs)
    layers.foreach(l => report.layer(s"$l.share", self(l) / w, "share"))
    report.layer("trace.coverage", layers.map(self).sum / w, "share")
    val (on, off) = walls.partition(_._1)
    report.layer("trace.overhead",
      if (on.isEmpty || off.isEmpty) 1.0
      else Stats.median(on.map(_._2.toDouble)) / Stats.median(off.map(_._2.toDouble)), "ratio")
  }
}
