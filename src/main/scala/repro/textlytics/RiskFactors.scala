package repro.textlytics

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.Gazetteer

/** A-priori risk factors from the incident history (Section 5.4).
  *
  * Three variants, all computed per *location* (city/village — the text
  * granularity) and then assigned to every ZIP of that location:
  *
  *  1. absolute risk factor  ARF = #incidents / population
  *  2. normalized risk factor NRF = (ARF − min ARF) / (max ARF − min ARF)
  *  3. binary risk factor     BRF = 1 iff the location is among the top-25%
  *     most frequent incident locations
  *
  * The min/max for NRF and the 25% cutoff for BRF range over the locations
  * that have at least one incident (locations absent from the corpus carry
  * no evidence either way; the hybrid evaluation of Table 9 restricts
  * itself to alarms in covered locations anyway).
  */
object RiskFactors {

  /** Gazetteer as a DataFrame: one row per ZIP with its owning city. */
  def gazetteerDf(spark: SparkSession, cities: Vector[Gazetteer.City]): DataFrame = {
    import spark.implicits._
    Gazetteer.zipIndex(cities)
      .map { case (z, c) => (z.zip, c.name, c.population, c.zips.size) }
      .toDF("zip", "city", "city_population", "n_zips_in_city")
  }

  /** Per-city incident counts from the annotated incident history. */
  def incidentCounts(incidents: DataFrame): DataFrame =
    incidents.groupBy("city").agg(count(lit(1)).as("n_incidents"))

  /** Compute (zip, city, n_zips_in_city, n_incidents, arf, nrf, brf) for
    * every ZIP whose city occurs in the incident history. */
  def compute(spark: SparkSession, incidents: DataFrame,
              cities: Vector[Gazetteer.City]): DataFrame = {
    val gaz    = gazetteerDf(spark, cities)
    val counts = incidentCounts(incidents)
    val perCity = counts.join(gaz.select("city", "city_population").distinct(), Seq("city"))
      .withColumn("arf", col("n_incidents") / col("city_population"))

    val stats = perCity.agg(
      min("arf").as("min_arf"), max("arf").as("max_arf"),
      expr("percentile(n_incidents, 0.75)").as("p75")).collect()(0)
    val (minArf, maxArf, p75) =
      (stats.getDouble(0), stats.getDouble(1), stats.getDouble(2))
    val span = if (maxArf > minArf) maxArf - minArf else 1.0

    val withFactors = perCity
      .withColumn("nrf", (col("arf") - lit(minArf)) / lit(span))
      .withColumn("brf", when(col("n_incidents") >= lit(p75), 1.0).otherwise(0.0))

    gaz.join(withFactors.select("city", "n_incidents", "arf", "nrf", "brf"), Seq("city"))
      .select("zip", "city", "n_zips_in_city", "n_incidents", "arf", "nrf", "brf")
  }
}
