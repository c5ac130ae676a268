package repro

import org.apache.spark.sql.functions._

/** Self-tests of the DuckDB oracle harness on alarm data: it must accept a
  * correct Spark result and reject a wrong one. */
class OracleSpec extends SparkSpec {

  test("validates a grouped aggregate") {
    val alarms = TestFixtures.sitasys(spark)
    val got = alarms.groupBy("alarm_type")
      .agg(count(lit(1)).as("n"), round(sum("duration_sec"), 4).as("dur"))
    Oracle.assertEquivalent(got,
      """SELECT alarm_type, COUNT(*) AS n,
        |       ROUND(SUM(CAST(duration_sec AS DOUBLE)), 4) AS dur
        |FROM alarms GROUP BY alarm_type""".stripMargin,
      "alarms" -> alarms)
  }

  test("catches wrong results") {
    val alarms = TestFixtures.sitasys(spark)
    val wrong = alarms.groupBy("alarm_type").agg((count(lit(1)) + 1).as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT alarm_type, COUNT(*) AS n FROM alarms GROUP BY alarm_type",
        "alarms" -> alarms)
    }
  }
}
