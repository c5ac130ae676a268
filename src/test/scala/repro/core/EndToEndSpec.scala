package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import scala.jdk.CollectionConverters._
import repro.{SparkSpec, TestFixtures}
import repro.data.AlarmSchema
import repro.docstore.{AlarmHistory, DocStore}
import repro.ml.SparkClassifiers
import repro.streamlog._

class EndToEndSpec extends SparkSpec {

  private lazy val fixture = {
    val labeled = AlarmPipeline.labelByDuration(TestFixtures.sitasys(spark), 1)
    val prepared = AlarmPipeline.prepare(labeled, AlarmPipeline.featuresFor("sitasys"))
    val service = new VerificationService(prepared.encoder,
      SparkClassifiers.Logistic().fit(prepared.train))
    val history = new AlarmHistory(spark, new DocStore(spark))
    history.ingest(labeled.limit(500))
    val events = labeled.limit(900).collect().toIndexedSeq.map(AlarmSchema.toEvent)
    (service, history, events)
  }

  private def mkPipeline(partitions: Int) = {
    val (service, history, events) = fixture
    val log = new EmbeddedLog(partitions)
    val producer = new LogProducer(log, Serializers.FastJsonSerializer)
    val e2e = new EndToEnd(spark, log, Serializers.FastJsonSerializer, history, service)
    (log, producer, e2e, events)
  }

  test("consumeBatch scores every produced alarm") {
    val (_, producer, e2e, events) = mkPipeline(4)
    producer.sendAll(events.take(300))
    val bt = e2e.consumeBatch()
    assert(bt.nAlarms == 300)
    assert(bt.nDevices == events.take(300).map(_.deviceAddr).distinct.size)
  }

  test("a batch collects two queries, the histogram and the score, over an uncached frame") {
    val (_, producer, e2e, events) = mkPipeline(4)
    producer.sendAll(events.take(300))
    val queries = new ConcurrentLinkedQueue[(String, String)]()
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
        queries.add(funcName -> qe.optimizedPlan.toString); ()
      }
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    // Listener events arrive asynchronously but in order: the batch's queries
    // are those after a marker query, and the score runs last.
    def seen = queries.asScala.toSeq.dropWhile(!_._2.contains("batch_start")).drop(1)
    spark.listenerManager.register(listener)
    try {
      spark.range(1).toDF("batch_start").collect()
      assert(e2e.consumeBatch().nAlarms == 300)
      eventually(timeout(10.seconds)) { assert(seen.exists(_._2.contains("p_true"))) }
    } finally spark.listenerManager.unregister(listener)
    val batch = seen
    val report = batch.map { case (f, plan) => s"$f:\n$plan" }.mkString("\n---\n")
    assert(batch.map(_._1) == Seq("collect", "collect"), report)
    val (hist, score) = (batch(0)._2, batch(1)._2)
    assert(hist.contains("count(1) AS n_alarms"), report)
    assert(score.contains("UDF(struct(") && score.contains("p_true") &&
      "UDF".r.findAllMatchIn(score).length >= 3, report)
    assert(batch.forall { case (_, plan) =>
      !plan.contains("InMemoryRelation") && !plan.contains("LocalRelation") }, report)
  }

  test("per-component timings are populated (the Fig. 12 breakdown)") {
    val (_, producer, e2e, events) = mkPipeline(4)
    producer.sendAll(events.take(300))
    val bt = e2e.consumeBatch()
    assert(bt.deserializeSec > 0 && bt.streamSec > 0 && bt.historySec > 0 && bt.mlSec > 0)
    assert(bt.totalSec > 0)
  }

  test("the history component sees the window's devices") {
    val (_, producer, e2e, events) = mkPipeline(2)
    producer.sendAll(events.take(400))
    val bt = e2e.consumeBatch()
    assert(bt.nHistogramRows > 0, "expected historic alarms for at least one device")
  }

  test("the timed ML query runs the encoder and model UDFs") {
    val (service, _, _) = fixture
    val batch = TestFixtures.sitasys(spark).limit(100).cache()
    def udfs(q: org.apache.spark.sql.DataFrame): Int =
      "UDF".r.findAllMatchIn(q.queryExecution.optimizedPlan.toString).length
    val timed = service.score(batch)
    val plan = timed.queryExecution.optimizedPlan.toString
    // The encoder UDF (features, over the raw columns' struct) and the
    // model's p_true and prediction UDFs.
    assert(udfs(timed) >= 3 && plan.contains("UDF(struct(") && plan.contains("p_true"), plan)
    // The seed's timer, a count() over the scored columns, is pruned to a scan.
    assert(udfs(service.verify(batch).select("p_true", "prediction").groupBy().count()) == 0)
    assert(timed.collect().length == 100)
    batch.unpersist()
  }

  test("the timed history query computes the per-bucket counts") {
    val (_, producer, e2e, events) = mkPipeline(2)
    producer.sendAll(events.take(400))
    val collected = new ConcurrentLinkedQueue[String]()
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        if (funcName == "collect") { collected.add(qe.optimizedPlan.toString); () }
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      assert(e2e.consumeBatch().nHistogramRows > 0)
      // Listener events arrive asynchronously.
      eventually(timeout(10.seconds)) {
        assert(collected.asScala.exists(_.contains("count(1) AS n_alarms")),
          collected.asScala.mkString("\n---\n"))
      }
    } finally spark.listenerManager.unregister(listener)
    // Why the timer must collect: a count() over the same query drops the
    // aggregate's per-bucket counts.
    val (_, history, _) = fixture
    val window = events.take(400)
    val hist = history.histogram(window.map(_.deviceAddr),
      window.map(_.tsEpoch).min - EndToEnd.HistoryWindowSec)
    assert(hist.queryExecution.optimizedPlan.toString.contains("count(1) AS n_alarms"))
    val counted = hist.groupBy().count().queryExecution.optimizedPlan.toString
    assert(!counted.contains("n_alarms"), counted)
  }

  test("exactly-once: a second drain consumes nothing") {
    val (_, producer, e2e, events) = mkPipeline(4)
    producer.sendAll(events.take(200))
    val (timings, _) = e2e.drain()
    assert(timings.map(_.nAlarms).sum == 200)
    assert(e2e.lag == 0)
    val bt = e2e.consumeBatch()
    assert(bt.nAlarms == 0)
  }

  test("drain processes multiple micro-batches when the batch size is small") {
    val (_, producer, e2e, events) = mkPipeline(1)
    producer.sendAll(events.take(250))
    val (timings, rate) = e2e.drain(maxPerPartition = 100)
    assert(timings.count(_.nAlarms > 0) == 3) // 100 + 100 + 50
    assert(timings.map(_.nAlarms).sum == 250)
    assert(rate > 0)
  }

  test("records produced after a drain are picked up by the next one") {
    val (_, producer, e2e, events) = mkPipeline(2)
    producer.sendAll(events.take(100))
    e2e.drain()
    producer.sendAll(events.slice(100, 150))
    val (timings, _) = e2e.drain()
    assert(timings.map(_.nAlarms).sum == 50)
  }
}
