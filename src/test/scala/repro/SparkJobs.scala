package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import scala.collection.mutable

/** Records the Spark jobs a block of code starts. */
object SparkJobs {

  private final case class Job(group: String, stageIds: Set[Int], taskCounts: mutable.ArrayBuffer[Int])

  /** Runs `body` and returns its result with the jobs it started, in start
    * order: per job, the task count of each stage that ran. A stage whose
    * output an earlier job already made (a cached or reused shuffle) is
    * skipped, not run, so it is not counted. */
  def recorded[T](spark: SparkSession)(body: => T): (T, Seq[Seq[Int]]) = {
    val jobs = mutable.ArrayBuffer.empty[Job]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.synchronized {
        val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
        jobs += Job(group.getOrElse(""), e.stageIds.toSet, mutable.ArrayBuffer.empty); ()
      }
      // Jobs run one at a time here, so a stage runs for the latest job
      // that contains it.
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = jobs.synchronized {
        jobs.findLast(_.stageIds.contains(e.stageInfo.stageId)).foreach(_.taskCounts += e.stageInfo.numTasks)
      }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("recorded", "recorded")
      val out = body
      sc.setJobGroup("sentinel", "sentinel")
      sc.parallelize(Seq(1), 1).count()
      // Listener events arrive asynchronously, in order: once the sentinel's
      // stage is seen, every job and stage of `body` has been seen.
      eventually(timeout(10.seconds)) {
        assert(jobs.synchronized(jobs.exists(j => j.group == "sentinel" && j.taskCounts.nonEmpty)))
      }
      (out, jobs.synchronized(jobs.collect { case Job("recorded", _, counts) => counts.toSeq }.toSeq))
    } finally { sc.clearJobGroup(); sc.removeSparkListener(listener) }
  }
}
