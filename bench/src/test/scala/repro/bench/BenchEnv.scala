package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.Reports
import repro.data.Gazetteer
import scala.sys.process.Process
import scala.util.Try

/** Shared state for the benchmark suites.
  *
  * `BENCH_SF` scales every dataset as a fraction of the paper's volumes
  * (default 0.1: Sitasys 35K, LFB 88.5K, SF 1.2K alarms). The expensive
  * accuracy/training sweep is computed once per JVM and shared between the
  * Table 8 and Fig. 10 suites.
  */
object BenchEnv {
  val sf: Double = sys.env.getOrElse("BENCH_SF", "0.1").toDouble
  lazy val cities: Vector[Gazetteer.City] = Gazetteer.universe()

  private var cellsCache: Option[Seq[Reports.AccuracyCell]] = None

  def accuracyCells(spark: SparkSession): Seq[Reports.AccuracyCell] = synchronized {
    cellsCache.getOrElse {
      val cells = Reports.accuracyAndTraining(spark, sf, cities)
      cellsCache = Some(cells)
      cells
    }
  }

  /** The repository root: the nearest directory at or above the working one
    * that holds both `build.sbt` and `bench/`. */
  lazy val repoRoot: Path =
    Iterator.iterate(Paths.get("").toAbsolutePath)(_.getParent).takeWhile(_ != null)
      .find(d => Files.exists(d.resolve("build.sbt")) && Files.isDirectory(d.resolve("bench")))
      .getOrElse(Paths.get("").toAbsolutePath)

  /** The checkout's commit, suffixed `-dirty` when tracked files differ from
    * it; "unknown" outside a git checkout. */
  lazy val gitSha: String =
    Try(Process(Seq("git", "describe", "--always", "--dirty", "--abbrev=40"), repoRoot.toFile).!!.trim)
      .getOrElse("unknown")

  val nproc: Int = Runtime.getRuntime.availableProcessors

  /** Writes `json` to `BENCH_<table>.json` at the repository root. */
  def writeBench(table: String, json: String): Path =
    Files.write(repoRoot.resolve(s"BENCH_$table.json"), (json + "\n").getBytes(UTF_8))

  def section(title: String): Unit = {
    println("=" * 78)
    println(title)
    println("=" * 78)
  }
}
