package repro.bench

import repro.SparkSpec
import repro.core.Reports

/** Fig. 12 + Section 5.5 (headline) — end-to-end consumer: per-component
  * time breakdown and maximum throughput.
  *
  * Paper: ~80% of consumer time goes to ML classification, the history
  * histogram is insignificant, the rest is the streaming component; with a
  * properly partitioned Kafka stream one consumer reaches ~30K alarms/sec.
  */
class Fig12EndToEndBench extends SparkSpec {

  private lazy val results = Reports.endToEndBench(spark, BenchEnv.sf, BenchEnv.cities)
  private def at(parts: Int) = results.find(_.partitions == parts).get

  /** `BENCH_fig12.json`: the run's shape and, per partition count, alarms/s
    * and each layer's total ms, µs per alarm and share of consumer time. */
  private def benchJson: String = {
    def r3(x: Double): Double = math.round(x * 1000) / 1000.0
    val rows = results.map { r =>
      val layers = r.total.layers.map { case (name, sec) =>
        s""""$name": {"ms": ${r3(sec * 1e3)}, "us_per_alarm": ${r3(sec * 1e6 / r.total.nAlarms)}, """ +
          s""""share": ${r3(r.share(name))}}"""
      }
      s"""    {"partitions": ${r.partitions}, "alarms": ${r.total.nAlarms}, "batches": ${r.nBatches}, """ +
        s""""alarms_per_s": ${math.round(r.throughput)},\n     "layers": {${layers.mkString(", ")}}}"""
    }
    s"""{
  "table": "fig12",
  "sf": ${BenchEnv.sf},
  "nproc": ${BenchEnv.nproc},
  "git_sha": "${BenchEnv.gitSha}",
  "runs": [
${rows.mkString(",\n")}
  ]
}"""
  }

  test("Fig. 12: measured end-to-end breakdown and throughput") {
    BenchEnv.section(s"Fig. 12 / Sec 5.5: end-to-end verification (sf=${BenchEnv.sf}, 60K alarms)")
    println(Reports.formatEndToEnd(results))
    println(s"wrote ${BenchEnv.writeBench("fig12", benchJson)}")
    assert(results.forall(_.total.nAlarms == 60000))
  }

  test("Fig. 12 shape: ML classification dominates the consumer time") {
    val r = at(8)
    val (ml, deser, hist) = (r.share("ml"), r.share("deserialize"), r.share("history"))
    assert(ml > deser && ml > hist, f"ml=$ml%.2f deser=$deser%.2f hist=$hist%.2f")
    assert(ml > 0.35, f"ml fraction $ml%.2f")
  }

  test("Fig. 12 shape: the history component is a small contributor") {
    val r = at(8)
    assert(r.share("history") < r.share("ml"), "history must cost less than ML")
  }

  test("Headline claim: end-to-end verification sustains tens of thousands of alarms/sec") {
    val best = results.map(_.throughput).max
    assert(best > 10000, f"best throughput $best%.0f alarms/s")
  }

  test("Partitioning lesson: a partitioned stream is not slower than the unpartitioned default") {
    assert(at(8).throughput >= at(1).throughput * 0.8,
      f"8p=${at(8).throughput}%.0f 1p=${at(1).throughput}%.0f")
  }
}
