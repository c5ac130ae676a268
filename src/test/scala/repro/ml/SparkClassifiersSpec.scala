package repro.ml

import org.apache.spark.ml.classification.{LinearSVC, LogisticRegression}
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkJobs, SparkSpec}
import repro.core.VerificationService
import scala.util.Random

class SparkClassifiersSpec extends SparkSpec {

  import spark.implicits._

  /** Separable two-column categorical dataset. */
  private lazy val raw: DataFrame = {
    val rng = new Random(17)
    val rows = (0 until 600).map { _ =>
      val y = rng.nextInt(2)
      val a = if (y == 1) "hot" else "cold"
      val b = Seq("x", "y", "z")(rng.nextInt(3))
      (a, b, y.toDouble)
    }
    rows.toDF("a", "b", "label")
  }
  private lazy val encoder = CategoricalEncoder.fit(raw, Seq("a", "b"))
  private lazy val encoded: DataFrame = encoder.transform(raw).cache()

  /** `raw` scored as the Verification Service scores alarms. */
  private def scored(model: AlarmModel): DataFrame = new VerificationService(encoder, model).verify(raw)

  private val classifiers: Seq[AlarmClassifier] = Seq(
    SparkClassifiers.RandomForest(Hyperparams.RandomForestParams(maxDepth = 5, numTrees = 10)),
    SparkClassifiers.Logistic(),
    SparkClassifiers.Svm(Hyperparams.svm.copy(maxIter = 30)),
    Mlp.DnnClassifier(Mlp.Config(epochs = 15)),
  )

  for (clf <- classifiers) {
    test(s"${clf.name}: learns a separable concept") {
      val out = scored(clf.fit(encoded))
      assert(Metrics.accuracy(out) > 0.95, clf.name)
    }

    test(s"${clf.name}: provides confidence p_true in [0,1]") {
      val out = scored(clf.fit(encoded))
      assert(out.where(col("p_true") < 0 || col("p_true") > 1).count() == 0)
    }

    test(s"${clf.name}: prediction is consistent with the confidence") {
      val out = scored(clf.fit(encoded))
      val inconsistent = out.where(
        (col("p_true") > 0.55 && col("prediction") === 0.0) ||
        (col("p_true") < 0.45 && col("prediction") === 1.0)).count()
      assert(inconsistent == 0, clf.name)
    }

    test(s"${clf.name}: confident on the separable feature") {
      val out = scored(clf.fit(encoded))
      val meanPTrueByLabel = out.groupBy("label").agg(avg("p_true")).collect()
        .map(r => r.getDouble(0) -> r.getDouble(1)).toMap
      assert(meanPTrueByLabel(1.0) > meanPTrueByLabel(0.0) + 0.3, clf.name)
    }
  }

  test("each Spark wrapper's p_true is its model's probability(1), or sigmoid(rawPrediction(1)) for the SVM") {
    for (clf <- classifiers.filterNot(_.name == "DNN")) {
      val model = clf.fit(encoded).asInstanceOf[SparkClassifiers.SparkModel]
      val pTrue = scored(model).select("p_true").collect().map(_.getDouble(0))
      val raw = model.m.transform(encoded)
      val expected =
        if (clf.name == "SVM") raw.select("rawPrediction").collect()
          .map(r => 1.0 / (1.0 + math.exp(-r.getAs[Vector](0)(1))))
        else raw.select("probability").collect().map(_.getAs[Vector](0)(1))
      assert(pTrue.length == encoded.count(), clf.name)
      assert(pTrue.toSeq == expected.toSeq, clf.name)
    }
  }

  test("each Spark wrapper's prediction is its model's own transform prediction") {
    for (clf <- classifiers.filterNot(_.name == "DNN")) {
      val model = clf.fit(encoded).asInstanceOf[SparkClassifiers.SparkModel]
      val got = scored(model).select("prediction").collect().map(_.getDouble(0))
      val expected = model.m.transform(encoded).select("prediction").collect().map(_.getDouble(0))
      assert(got.length == encoded.count(), clf.name)
      assert(got.toSeq == expected.toSeq, clf.name)
    }
  }

  test("the DNN's p_true from features is Net.pTrue on the encoder's indices") {
    val model = classifiers.last.fit(encoded).asInstanceOf[Mlp.DnnModel]
    val rows = scored(model).select("a", "b", "p_true").collect()
    assert(rows.length == 600)
    rows.foreach { r =>
      val idx = encoder.indicesOf(Seq(r.getString(0), r.getString(1)))
      assert(r.getDouble(2) == model.net.pTrue(idx), r)
    }
  }

  test("LR and SVM fit with single-task, single-stage jobs and score as a direct Spark ML fit") {
    val spread = encoded.repartition(4).cache()
    assert(spread.rdd.getNumPartitions == 4 && spread.count() == 600)
    val lr = Hyperparams.lr; val svm = Hyperparams.svm.copy(maxIter = 30)
    val cases = Seq(
      SparkClassifiers.Logistic(lr) ->
        new LogisticRegression().setMaxIter(lr.maxIter).setTol(lr.tol).setRegParam(1e-3).fit(spread),
      SparkClassifiers.Svm(svm) ->
        new LinearSVC().setMaxIter(svm.maxIter).setRegParam(svm.regParam).fit(spread))
    val vectors = spread.select("features").collect().map(_.getAs[Vector](0))
    for ((clf, direct) <- cases) {
      val (model, jobs) = SparkJobs.recorded(spark)(clf.fit(spread))
      assert(jobs.nonEmpty && jobs.forall(_ == Seq(1)), s"${clf.name}: tasks per stage per job $jobs")
      val reference = SparkClassifiers.SparkModel(clf.name, direct)
      vectors.foreach(v => assert(math.abs(model.pTrue(v) - reference.pTrue(v)) <= 1e-6, clf.name))
    }
    spread.unpersist(); ()
  }

  test("classifier names match the paper's abbreviations") {
    assert(classifiers.map(_.name) == Seq("RF", "LR", "SVM", "DNN"))
  }

  test("Metrics.accuracy computes the fraction of matches") {
    val df = Seq((1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)).toDF("prediction", "label")
    assert(Metrics.accuracy(df) == 0.75)
  }

  test("Metrics.accuracy accepts integer labels") {
    val df = Seq((1.0, 1), (0.0, 0)).toDF("prediction", "label")
    assert(Metrics.accuracy(df) == 1.0)
  }
}
