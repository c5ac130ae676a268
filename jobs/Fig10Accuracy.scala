package repro.jobs

import repro.core.Reports
import repro.data.Gazetteer

/** Fig. 10 (headline table): verification accuracy of the four algorithms on
  * the three datasets. */
object Fig10Accuracy {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("fig10-accuracy")
    val sf = JobSession.sfArg(args)
    val cells = Reports.accuracyAndTraining(spark, sf, Gazetteer.universe())
    println(s"Fig. 10: verification accuracy at sf=$sf")
    println(Reports.formatGrid(cells, trainingTime = false))
    spark.stop()
  }
}
