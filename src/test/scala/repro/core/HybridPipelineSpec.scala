package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.textlytics.{IncidentPipeline, RiskFactors}

class HybridPipelineSpec extends SparkSpec {

  import spark.implicits._

  private lazy val alarms = AlarmPipeline.labelByDuration(TestFixtures.sitasys(spark), 1)
  private lazy val incidentsDf = {
    val annotated = IncidentPipeline.annotateAll(TestFixtures.incidents._1, TestFixtures.cities)
    spark.createDataset(annotated).toDF().cache()
  }
  private lazy val buckets =
    HybridPipeline.riskBuckets(RiskFactors.compute(spark, incidentsDf, TestFixtures.cities)).cache()

  test("risk buckets have the expected ranges") {
    val arfB = buckets.select("arf_bucket").distinct().collect().map(_.getString(0).toInt)
    assert(arfB.forall(b => b >= 1 && b <= 10))
    val nrfB = buckets.select("nrf_bucket").distinct().collect().map(_.getString(0).toInt)
    assert(nrfB.forall(b => b >= 0 && b <= 9))
    val brfB = buckets.select("brf_bucket").distinct().collect().map(_.getString(0)).toSet
    assert(brfB.subsetOf(Set("0", "1")))
  }

  test("scenario (a) keeps all alarm types, restricted to covered ZIPs") {
    val a = HybridPipeline.scenarioAlarms(alarms, buckets, "a")
    val coveredZips = buckets.select("zip").distinct().count()
    assert(a.select("zip").distinct().count() <= coveredZips)
    assert(a.select("alarm_type").distinct().count() > 2)
  }

  test("scenarios (b) and (d) keep only fire & intrusion alarms") {
    Seq("b", "d").foreach { s =>
      val types = HybridPipeline.scenarioAlarms(alarms, buckets, s)
        .select("alarm_type").distinct().collect().map(_.getString(0)).toSet
      assert(types.subsetOf(Set("fire", "intrusion")), s"scenario $s: $types")
    }
  }

  test("scenarios (c) and (d) keep only single-ZIP locations") {
    Seq("c", "d").foreach { s =>
      val bad = HybridPipeline.scenarioAlarms(alarms, buckets, s)
        .where(col("n_zips_in_city") =!= 1).count()
      assert(bad == 0)
    }
  }

  test("scenario populations are nested like the paper's row counts") {
    val counts = HybridPipeline.Scenarios.map(s =>
      s -> HybridPipeline.scenarioAlarms(alarms, buckets, s).count()).toMap
    assert(counts("a") >= counts("b") && counts("a") >= counts("c"))
    assert(counts("b") >= counts("d") && counts("c") >= counts("d"))
    assert(counts("d") > 0)
  }

  test("run produces the full 4x4 grid with sane accuracies") {
    val results = HybridPipeline.run(spark, alarms, incidentsDf, TestFixtures.cities,
      () => repro.ml.SparkClassifiers.Logistic(), AlarmPipeline.featuresFor("sitasys"),
      runs = 1)
    assert(results.size == 16)
    assert(results.map(r => (r.scenario, r.variant)).distinct.size == 16)
    results.foreach { r =>
      assert(r.accuracy > 0.5 && r.accuracy <= 1.0, s"${r.scenario}/${r.variant}: ${r.accuracy}")
      assert(r.nAlarms > 0)
    }
  }

  test("formatTable renders a row per variant plus the alarm counts") {
    val cells = for (s <- HybridPipeline.Scenarios; v <- HybridPipeline.Variants)
      yield HybridPipeline.CellResult(s, v, 0.87, 100)
    val table = HybridPipeline.formatTable(cells)
    assert(table.linesIterator.size == 6)
    assert(table.contains("baseline") && table.contains("ARF"))
  }
}
