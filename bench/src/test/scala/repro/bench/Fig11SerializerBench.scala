package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Reports

/** Fig. 11 (headline) — serializer throughput: the paper found Jackson a
  * poor fit for small alarm objects; switching to Gson roughly doubled the
  * producer rate (12K → 25K alarms/s on their hardware) and nearly doubled
  * the consumer rate. */
class Fig11SerializerBench extends AnyFunSuite {

  private lazy val results = Reports.serializerBench()

  /** `BENCH_fig11.json`: the run's shape and, per serializer, alarms/s on
    * each side of the log and the codec's µs per alarm. */
  private def benchJson: String = {
    def us(x: Double): Double = math.round(x * 1000) / 1000.0
    val rows = results.map { r =>
      s"""    {"serializer": "${r.serializer}", "producer_alarms_per_s": ${math.round(r.producerRate)}, """ +
        s""""consumer_alarms_per_s": ${math.round(r.consumerRate)}, "write_us_per_alarm": ${us(r.writeUs)}, """ +
        s""""read_us_per_alarm": ${us(r.readUs)}}"""
    }
    s"""{
  "table": "fig11",
  "partitions": ${Reports.SerializerPartitions},
  "alarms": ${Reports.SerializerAlarms},
  "nproc": ${BenchEnv.nproc},
  "git_sha": "${BenchEnv.gitSha}",
  "serializers": [
${rows.mkString(",\n")}
  ]
}"""
  }
  private def byName(fragment: String) = results.find(_.serializer.contains(fragment)).get

  test("Fig. 11: measured serializer throughput") {
    BenchEnv.section("Fig. 11: serializer throughput (200K alarms)")
    println(Reports.formatSerializer(results))
    println(s"wrote ${BenchEnv.writeBench("fig11", benchJson)}")
    assert(results.size == 2)
    assert(results.forall(r => r.producerRate > 0 && r.consumerRate > 0))
  }

  test("Fig. 11 shape: the hand-rolled (Gson-like) serializer beats the reflective one") {
    val fast = byName("gson"); val slow = byName("jackson")
    assert(fast.producerRate > slow.producerRate,
      f"producer: fast=${fast.producerRate}%.0f slow=${slow.producerRate}%.0f")
    assert(fast.consumerRate > slow.consumerRate,
      f"consumer: fast=${fast.consumerRate}%.0f slow=${slow.consumerRate}%.0f")
  }

  test("Fig. 11 shape: the gap is substantial (paper: ~2x on the producer)") {
    val fast = byName("gson"); val slow = byName("jackson")
    assert(fast.producerRate > slow.producerRate * 1.3,
      f"speedup=${fast.producerRate / slow.producerRate}%.2fx")
  }

  test("Headline claim: the producer sustains well beyond 25K alarms/sec") {
    assert(byName("gson").producerRate > 25000,
      f"producer rate ${byName("gson").producerRate}%.0f")
  }
}
