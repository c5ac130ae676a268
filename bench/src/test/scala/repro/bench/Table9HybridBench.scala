package repro.bench

import repro.SparkSpec
import repro.core.{HybridPipeline, Reports}

/** Table 9 — hybrid approach: accuracy with ARF/NRF/BRF risk factors over
  * the four scenarios (a)–(d).
  *
  * Paper (averages over 10 runs):
  *
  * |          | (a)    | (b)    | (c)    | (d)    |
  * | baseline | 89.35  | 85.73  | 87.16  | 86.56  |
  * | ARF      | 89.29  | 85.95  | 87.56  | 87.45  |
  * | NRF      | 89.39  | 85.67  | 87.41  | 87.56  |
  * | BRF      | 89.31  | 85.79  | 87.51  | 87.48  |
  *
  * Shape: risk factors move accuracy by well under 2%, never degrade it
  * catastrophically, and help most in scenario (d) (single-ZIP locations,
  * fire/intrusion alarms only), where the text-mined evidence matches the
  * alarm granularity.
  */
class Table9HybridBench extends SparkSpec {

  private lazy val results = Reports.hybrid(spark, BenchEnv.sf, BenchEnv.cities)
  private def cell(s: String, v: String): Double =
    results.find(r => r.scenario == s && r.variant == v).get.accuracy
  private def bestRisk(s: String): Double =
    Seq("ARF", "NRF", "BRF").map(v => cell(s, v)).max

  test("Table 9: measured accuracies") {
    BenchEnv.section(s"Table 9: hybrid approach at sf=${BenchEnv.sf} (avg of 3 runs)")
    println(HybridPipeline.formatTable(results))
    assert(results.size == 16)
    assert(results.forall(r => r.accuracy > 0.6 && r.accuracy <= 1.0))
  }

  test("Table 9 shape: scenario populations are nested (a ⊇ b,c ⊇ d)") {
    def n(s: String) = results.find(r => r.scenario == s && r.variant == "baseline").get.nAlarms
    assert(n("a") > n("b") && n("a") > n("c"))
    assert(n("b") > n("d") && n("c") > n("d"))
  }

  test("Table 9 shape: risk factors never change accuracy by more than ~2%") {
    for (s <- HybridPipeline.Scenarios; v <- Seq("ARF", "NRF", "BRF")) {
      assert(math.abs(cell(s, v) - cell(s, "baseline")) < 0.03, s"$s/$v")
    }
  }

  test("Table 9 shape: risk factors help in the granularity-matched scenario (d)") {
    assert(bestRisk("d") >= cell("d", "baseline"),
      s"d: baseline=${cell("d", "baseline")} bestRisk=${bestRisk("d")}")
  }

  test("Table 9 shape: the (d) improvement is at least as large as the (a) improvement") {
    val dGain = bestRisk("d") - cell("d", "baseline")
    val aGain = bestRisk("a") - cell("a", "baseline")
    assert(dGain >= aGain - 0.005, s"dGain=$dGain aGain=$aGain")
  }
}
