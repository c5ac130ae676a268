package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared bootstrap for the spark-submit entrypoints (one per table/figure).
  * Each job accepts an optional first argument: the scale factor as a
  * fraction of the paper's dataset volumes (default 0.1 ≈ bench scale). */
object JobSession {
  def spark(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()

  def sfArg(args: Array[String], default: Double = 0.1): Double =
    args.headOption.map(_.toDouble).getOrElse(default)
}
