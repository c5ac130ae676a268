package repro.stream

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.core.{AlarmPipeline, VerificationService}
import repro.data.AlarmSchema
import repro.ml.SparkClassifiers
import repro.streamlog.{AlarmEvent, Serializers}

class VerificationStreamSpec extends SparkSpec {

  private lazy val (service, events) = {
    val labeled = AlarmPipeline.labelByDuration(TestFixtures.sitasys(spark), 1)
    val prepared = AlarmPipeline.prepare(labeled, AlarmPipeline.featuresFor("sitasys"))
    val svc = new VerificationService(prepared.encoder,
      SparkClassifiers.Logistic().fit(prepared.train))
    val evs = labeled.limit(300).collect().toIndexedSeq.map(AlarmSchema.toEvent)
    (svc, evs)
  }

  private def runStream(batches: Seq[Seq[AlarmEvent]], queryName: String) = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[String]
    val scored = VerificationStream.build(input.toDF(), Serializers.FastJsonSerializer, service)
    val query = scored.writeStream.format("memory").queryName(queryName)
      .outputMode("append").start()
    try {
      batches.foreach { b =>
        input.addData(b.map(Serializers.FastJsonSerializer.write))
        query.processAllAvailable()
      }
    } finally query.stop()
    spark.table(queryName)
  }

  test("streamed alarms are deserialized and scored") {
    val out = runStream(Seq(events.take(100)), "s1").cache()
    assert(out.count() == 100)
    assert(out.columns.toSeq == Seq("id", "prediction", "p_true", "send_to_arc"))
    assert(out.where(col("p_true").isNull).count() == 0)
  }

  test("multiple micro-batches accumulate (append mode)") {
    val out = runStream(Seq(events.take(50), events.slice(50, 130)), "s2")
    assert(out.count() == 130)
  }

  test("streaming scores equal batch scores for the same alarms") {
    val streamed = runStream(Seq(events.take(80)), "s5")
    val batch = service.score(AlarmSchema.eventFrame(spark, events.take(80), 2))
    assert(streamed.columns.toSeq == batch.columns.toSeq)
    def byId(df: org.apache.spark.sql.DataFrame) =
      df.collect().map(r => r.getLong(0) -> (r.getDouble(1), r.getDouble(2), r.getBoolean(3))).toMap
    val (s, b) = (byId(streamed), byId(batch))
    assert(s.keySet == b.keySet && s.size == 80)
    s.foreach { case (id, (prediction, pTrue, toArc)) =>
      val (bPrediction, bPTrue, bToArc) = b(id)
      assert(prediction == bPrediction && toArc == bToArc, id)
      assert(math.abs(pTrue - bPTrue) < 1e-9, id)
    }
  }

  test("send_to_arc respects the service threshold in streaming mode") {
    val out = runStream(Seq(events.take(100)), "s6")
    val bad = out.where(
      (col("p_true") >= service.threshold && !col("send_to_arc")) ||
      (col("p_true") < service.threshold && col("send_to_arc"))).count()
    assert(bad == 0)
  }
}
