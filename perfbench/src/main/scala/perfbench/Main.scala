package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession

/** Benchmark entry point: runs one workload and prints, as its last stdout line,
  * `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
  * with `--trace 0`, per-layer metrics with `--trace 1`.
  *
  * Usage: perfbench.Main --workload <drain_backlog|paced_writeback|codec_log>
  *          --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--source <id>]
  */
object Main {
  val Workloads = Seq("drain_backlog", "paced_writeback", "codec_log")

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", "")
    require(Workloads.contains(workload), s"--workload must be one of ${Workloads.mkString(", ")}")
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toInt
    val traced = opts.getOrElse("trace", "0") == "1"
    require(seconds > 0, "--seconds must be positive")

    val report = new Report
    val spans = new Spans
    report.context ++= Seq("workload" -> workload, "seed" -> seed, "seconds" -> seconds,
      "trace" -> traced, "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> System.getProperty("java.version"), "source" -> opts.getOrElse("source", "unknown"))

    if (workload == "codec_log") CodecBench.run(seed, seconds, traced, spans, report)
    else {
      val shape = if (workload == "drain_backlog") ConsumerBench.DrainBacklog else ConsumerBench.PacedWriteback
      val spark = SparkSession.builder()
        .master(s"local[${shape.sparkThreads}]")
        .appName(s"perfbench-$workload")
        .config("spark.sql.shuffle.partitions", shape.sparkThreads)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", false)
        // Off, as Spark turns it off for streaming micro-batches: on batches
        // this small it only adds a planning round trip per shuffle.
        .config("spark.sql.adaptive.enabled", false)
        .getOrCreate()
      spark.sparkContext.setLogLevel("ERROR")
      report.context ++= Seq("spark" -> spark.version, "spark_threads" -> shape.sparkThreads,
        "shuffle_partitions" -> shape.sparkThreads)
      try {
        if (workload == "drain_backlog")
          ConsumerBench.drainBacklog(spark, seed, seconds, traced, spans, report)
        else ConsumerBench.pacedWriteback(spark, seed, seconds, traced, spans, report)
      } finally spark.stop()
    }

    report.problems.foreach(p => println(s"CHECK FAILED: $p"))
    println(Json(Map("context" -> report.context)))
    if (traced) opts.get("out").foreach { dir =>
      val t0 = spans.recorded.headOption.map(_.startNs).getOrElse(0L)
      val rows = spans.recorded.map(s => Seq(s.name, s.startNs - t0, s.endNs - t0, s.parent, s.batch))
      val path = Paths.get(dir).resolve(s"trace-$workload-seed$seed.json")
      Files.createDirectories(path.getParent)
      Files.write(path, Json(Map("context" -> report.context,
        "span_columns" -> Seq("name", "start_ns", "end_ns", "parent", "batch"),
        "spans" -> rows)).getBytes(StandardCharsets.UTF_8))
    }
    println(report.resultLine(traced))
  }
}
