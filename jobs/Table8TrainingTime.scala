package repro.jobs

import repro.core.Reports
import repro.data.Gazetteer

/** Table 8 (+ Fig. 10): training time and accuracy for the four algorithms
  * across the three datasets. */
object Table8TrainingTime {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table8-training-time")
    val sf = JobSession.sfArg(args)
    val cells = Reports.accuracyAndTraining(spark, sf, Gazetteer.universe())
    println(s"Table 8: training time [sec] at sf=$sf of the paper's volumes")
    println(Reports.formatGrid(cells, trainingTime = true))
    println("Fig. 10 companion: verification accuracy")
    println(Reports.formatGrid(cells, trainingTime = false))
    spark.stop()
  }
}
