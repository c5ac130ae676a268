package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Reports
import repro.data.AlarmSchema

/** Table 1 — feature correspondence across the three datasets. */
class Table1FeaturesBench extends AnyFunSuite {

  test("Table 1: feature roles per dataset match the paper") {
    BenchEnv.section("Table 1: Features of the three data sets")
    println(Reports.table1())
    assert(AlarmSchema.Table1.size == 3)
    assert(AlarmSchema.Table1.map(_._1) == Seq("Sitasys", "London", "San Francisco"))
    val sf = AlarmSchema.Table1.find(_._1 == "San Francisco").get
    assert(sf._4 == "-", "SF has no property-type column")
    assert(AlarmSchema.Table1.find(_._1 == "Sitasys").get._6 == "Alarm Duration")
  }
}
