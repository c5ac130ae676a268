package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.Gazetteer
import repro.ml.AlarmClassifier
import repro.textlytics.RiskFactors

/** The hybrid approach of Sections 5.2/5.4 and Table 9: enrich the alarm
  * features with an a-priori risk factor mined from unstructured incident
  * reports, and measure its impact across four scenarios:
  *
  *   (a) all covered locations, all alarm types
  *   (b) all covered locations, fire & intrusion alarms only
  *   (c) single-ZIP locations, all alarm types
  *   (d) single-ZIP locations, fire & intrusion alarms only
  *
  * ("covered" = the alarm's ZIP belongs to a city with at least one incident
  * report — the paper restricts evaluation to those.)
  *
  * Risk factor variants per Section 5.4: absolute (ARF), normalized (NRF)
  * and binary (BRF). The continuous factors enter the (categorical) feature
  * space as bucket features: ARF by rank deciles, NRF by fixed-width bins on
  * [0,1], BRF as its two levels.
  */
object HybridPipeline {

  val Scenarios = Seq("a", "b", "c", "d")
  val Variants  = Seq("baseline", "ARF", "NRF", "BRF")

  final case class CellResult(scenario: String, variant: String,
                              accuracy: Double, nAlarms: Long)

  /** Per-ZIP bucket features for each risk variant. */
  def riskBuckets(risk: DataFrame): DataFrame = {
    import org.apache.spark.sql.expressions.Window
    val w = Window.orderBy(col("arf"))
    risk
      .withColumn("arf_bucket", ntile(10).over(w).cast("string"))
      .withColumn("nrf_bucket", least(floor(col("nrf") * 10), lit(9)).cast("string"))
      .withColumn("brf_bucket", col("brf").cast("int").cast("string"))
      .select("zip", "n_zips_in_city", "arf_bucket", "nrf_bucket", "brf_bucket")
  }

  /** Restrict alarms to a scenario's population. */
  def scenarioAlarms(alarms: DataFrame, riskZips: DataFrame, scenario: String): DataFrame = {
    val base = alarms.join(riskZips, Seq("zip"))
    val typed = scenario match {
      case "b" | "d" => base.where(col("alarm_type").isin("fire", "intrusion"))
      case _         => base
    }
    scenario match {
      case "c" | "d" => typed.where(col("n_zips_in_city") === 1)
      case _         => typed
    }
  }

  /** Run the full Table 9 grid. `mkClassifier` is invoked per cell/run so
    * stateful learners are fresh; accuracies are averaged over `runs`
    * train/test splits, seeded 1000, 1001, … (the paper averaged 10 runs). */
  def run(spark: SparkSession, alarms: DataFrame, incidents: DataFrame,
          cities: Vector[Gazetteer.City], mkClassifier: () => AlarmClassifier,
          features: Seq[String], runs: Int = 3): Seq[CellResult] = {

    val buckets = riskBuckets(RiskFactors.compute(spark, incidents, cities)).cache()
    buckets.count()

    for {
      scenario <- Scenarios
      variant  <- Variants
    } yield {
      val pop = scenarioAlarms(alarms, buckets, scenario).cache()
      val n   = pop.count()
      val featCols = variant match {
        case "baseline" => features
        case "ARF"      => features :+ "arf_bucket"
        case "NRF"      => features :+ "nrf_bucket"
        case "BRF"      => features :+ "brf_bucket"
      }
      val accs = (0 until runs).map { r =>
        val prepared = AlarmPipeline.prepare(pop, featCols, seed = 1000L + r)
        val res = AlarmPipeline.evaluate(mkClassifier(), prepared)
        prepared.train.unpersist(); prepared.test.unpersist()
        res.accuracy
      }
      pop.unpersist()
      CellResult(scenario, variant, accs.sum / runs, n)
    }
  }

  /** Render results as the paper's Table 9 layout (rows = variants). */
  def formatTable(results: Seq[CellResult]): String = {
    val byCell = results.map(r => (r.scenario, r.variant) -> r).toMap
    val sb = new StringBuilder
    sb.append(f"${"variant"}%-10s ${"(a)"}%10s ${"(b)"}%10s ${"(c)"}%10s ${"(d)"}%10s\n")
    for (v <- Variants) {
      sb.append(f"$v%-10s")
      for (s <- Scenarios) sb.append(f" ${byCell((s, v)).accuracy * 100}%9.2f%%")
      sb.append('\n')
    }
    sb.append(f"${"#-alarms"}%-10s")
    for (s <- Scenarios) sb.append(f" ${byCell((s, "baseline")).nAlarms}%10d")
    sb.append('\n')
    sb.toString
  }
}
