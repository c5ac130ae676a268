package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.functions._
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import scala.jdk.CollectionConverters._
import repro.{SparkSpec, TestFixtures}
import repro.data.AlarmSchema
import repro.ml.{Hyperparams, Mlp, SparkClassifiers}

class AlarmPipelineSpec extends SparkSpec {

  private lazy val sitasys = TestFixtures.sitasys(spark)
  private lazy val labeled = AlarmPipeline.labelByDuration(sitasys, deltaTMinutes = 1)
  private lazy val prepared =
    AlarmPipeline.prepare(labeled, AlarmPipeline.featuresFor("sitasys"))

  test("featuresFor matches Table 1 roles") {
    assert(AlarmPipeline.featuresFor("sitasys")
      == Seq("zip", "day_of_week", "hour_of_day", "alarm_type", "property_type",
             "sensor_type", "sw_version"))
    assert(AlarmPipeline.featuresFor("london") == AlarmSchema.GenericFeatures)
    assert(!AlarmPipeline.featuresFor("sf").contains("property_type"))
  }

  test("featuresFor rejects unknown datasets") {
    intercept[IllegalArgumentException] { AlarmPipeline.featuresFor("berlin") }
  }

  test("labelByDuration thresholds at delta t minutes") {
    val l = AlarmPipeline.labelByDuration(sitasys, 5)
    assert(l.where(col("duration_sec") >= 300 && col("label") === 0).count() == 0)
    assert(l.where(col("duration_sec") < 300 && col("label") === 1).count() == 0)
  }

  test("labelByDuration at 1 minute recovers the generator's latent truth") {
    val agree = labeled.where(col("label") === col("latent_true")).count().toDouble /
      labeled.count()
    assert(agree > 0.9, s"agreement $agree")
  }

  test("prepare splits roughly 50/50 (the paper's protocol)") {
    val n = labeled.count()
    val tr = prepared.train.count(); val te = prepared.test.count()
    assert(tr + te == n)
    assert(math.abs(tr - te) < n * 0.15, s"train=$tr test=$te")
  }

  test("prepare encodes the train split and keeps the test split raw") {
    assert(prepared.train.columns.toSet == Set("features", "label"))
    assert(prepared.test.columns.toSeq == AlarmPipeline.featuresFor("sitasys") :+ "label")
  }

  test("the split is deterministic in the seed and disjoint") {
    val a = AlarmPipeline.prepare(labeled, Seq("zip"), seed = 5)
    val b = AlarmPipeline.prepare(labeled, Seq("zip"), seed = 5)
    assert(a.train.count() == b.train.count())
    assert(a.test.count() == b.test.count())
  }

  test("algorithms returns RF, SVM, LR, DNN in the paper's lineup") {
    assert(AlarmPipeline.algorithms(Reports.MlKnobs()).map(_.name) == Seq("RF", "SVM", "LR", "DNN"))
  }

  test("algorithms applies every training-budget knob") {
    val knobs = Reports.MlKnobs(rfMaxDepth = 7, rfNumTrees = 11, svmMaxIter = 13, dnnEpochs = 17)
    assert(AlarmPipeline.algorithms(knobs) == Seq(
      SparkClassifiers.RandomForest(Hyperparams.RandomForestParams(maxDepth = 7, numTrees = 11)),
      SparkClassifiers.Svm(Hyperparams.svm.copy(maxIter = 13)),
      SparkClassifiers.Logistic(),
      Mlp.DnnClassifier(Mlp.Config(epochs = 17))))
  }

  test("evaluate reports accuracy and training time for LR on Sitasys") {
    val res = AlarmPipeline.evaluate(SparkClassifiers.Logistic(), prepared)
    assert(res.trainTimeSec > 0)
    assert(res.accuracy > 0.75, s"LR accuracy ${res.accuracy}")
  }

  test("evaluate scores the raw test split through the Verification Service's encoder and model UDFs") {
    val queries = new ConcurrentLinkedQueue[(String, String)]()
    val listener = new QueryExecutionListener {
      // The expressions of the plan's own nodes: a cached relation's inner
      // plan is not among them.
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
        queries.add(funcName -> qe.optimizedPlan.flatMap(_.expressions).mkString("\n")); ()
      }
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    // Listener events arrive asynchronously but in order: evaluate's
    // accuracy query is the last one before the end marker.
    def seen = queries.asScala.toSeq
    spark.listenerManager.register(listener)
    try {
      AlarmPipeline.evaluate(SparkClassifiers.Logistic(), prepared)
      spark.range(1).toDF("evaluate_end").collect()
      eventually(timeout(10.seconds)) { assert(seen.exists(_._2.contains("evaluate_end"))) }
    } finally spark.listenerManager.unregister(listener)
    val (func, plan) = seen.takeWhile(!_._2.contains("evaluate_end")).last
    assert(func == "collect", plan)
    assert(plan.contains("UDF(struct(zip"), plan)
    assert(plan.contains("AS prediction") && "UDF".r.findAllMatchIn(plan).length >= 2, plan)
  }

  test("DNN beats chance on Sitasys at unit-test scale") {
    val res = AlarmPipeline.evaluate(
      Mlp.DnnClassifier(Mlp.Config(epochs = 15)), prepared)
    assert(res.accuracy > 0.7, s"DNN accuracy ${res.accuracy}")
  }

  test("the trained model generalizes: test accuracy is far above the base rate") {
    val base = math.max(
      prepared.test.agg(avg("label")).collect()(0).getDouble(0),
      1 - prepared.test.agg(avg("label")).collect()(0).getDouble(0))
    val res = AlarmPipeline.evaluate(SparkClassifiers.Logistic(), prepared)
    assert(res.accuracy > base + 0.1)
  }
}
