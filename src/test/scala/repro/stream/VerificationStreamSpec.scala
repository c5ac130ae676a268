package repro.stream

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.core.{AlarmPipeline, VerificationService}
import repro.data.AlarmSchema
import repro.ml.SparkClassifiers
import repro.streamlog.{AlarmEvent, Serializers}

class VerificationStreamSpec extends SparkSpec {

  private lazy val (service, events, riskMap) = {
    val labeled = AlarmPipeline.labelByDuration(TestFixtures.sitasys(spark), 1)
    val prepared = AlarmPipeline.prepare(labeled, AlarmPipeline.featuresFor("sitasys"))
    val svc = new VerificationService(prepared.encoder,
      SparkClassifiers.Logistic().fit(prepared.train))
    val evs = labeled.limit(300).collect().toIndexedSeq.map(AlarmSchema.toEvent)
    val risks = TestFixtures.cities.flatMap(_.zips).map(z => z.zip -> z.latentRisk).toMap
    (svc, evs, risks)
  }

  private def runStream(batches: Seq[Seq[AlarmEvent]], queryName: String) = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[String]
    val scored = VerificationStream.build(input.toDF(), Serializers.FastJsonSerializer,
      service, riskMap)
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

  test("streamed alarms are deserialized, annotated and scored") {
    val out = runStream(Seq(events.take(100)), "s1").cache()
    assert(out.count() == 100)
    assert(Seq("id", "device_addr", "zip", "alarm_type", "a_priori_risk",
      "p_true", "prediction", "send_to_arc").forall(out.columns.contains))
    assert(out.where(col("p_true").isNull).count() == 0)
  }

  test("multiple micro-batches accumulate (append mode)") {
    val out = runStream(Seq(events.take(50), events.slice(50, 130)), "s2")
    assert(out.count() == 130)
  }

  test("the a-priori risk UDF annotates known ZIPs with the gazetteer risk") {
    val out = runStream(Seq(events.take(100)), "s3")
    val rows = out.select("zip", "a_priori_risk").distinct().collect()
    rows.foreach(r => assert(math.abs(r.getDouble(1) - riskMap(r.getString(0))) < 1e-12))
  }

  test("unknown ZIPs get zero a-priori risk") {
    val weird = events.take(5).map(_.copy(zip = "0000"))
    val out = runStream(Seq(weird), "s4")
    assert(out.where(col("a_priori_risk") =!= 0.0).count() == 0)
  }

  test("streaming scores equal batch scores for the same alarms") {
    val streamed = runStream(Seq(events.take(80)), "s5")
      .select("id", "p_true").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val batch = service.verify(AlarmSchema.eventFrame(spark, events.take(80)))
      .select("id", "p_true").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(streamed.keySet == batch.keySet)
    streamed.foreach { case (id, p) => assert(math.abs(p - batch(id)) < 1e-9) }
  }

  test("send_to_arc respects the service threshold in streaming mode") {
    val out = runStream(Seq(events.take(100)), "s6")
    val bad = out.where(
      (col("p_true") >= service.threshold && !col("send_to_arc")) ||
      (col("p_true") < service.threshold && col("send_to_arc"))).count()
    assert(bad == 0)
  }
}
