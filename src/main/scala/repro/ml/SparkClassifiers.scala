package repro.ml

import org.apache.spark.ml.classification.{ClassificationModel, LinearSVC, LinearSVCModel,
  LogisticRegression, LogisticRegressionModel, ProbabilisticClassificationModel, RandomForestClassifier}
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame

/** The three Spark ML algorithms the paper used off the shelf (Section 5.3:
  * "For the first 3 we used the readily available implementations from
  * Spark ML"), parameterized by Tables 3–5.
  */
object SparkClassifiers {

  /** A fitted Spark ML model behind the shared [[AlarmModel]] API, scored
    * one vector at a time with the model's own per-row calls. The only
    * per-algorithm part is the source of `p_true`: the class-1 probability
    * of a probabilistic model (RF, LR), else the class-1 margin squashed
    * through a sigmoid (LinearSVC has no probability output). */
  final case class SparkModel(name: String, m: ClassificationModel[Vector, _]) extends AlarmModel {
    def pTrue(v: Vector): Double = m match {
      case p: ProbabilisticClassificationModel[Vector @unchecked, _] => p.predictProbability(v)(1)
      case _ => 1.0 / (1.0 + math.exp(-m.predictRaw(v)(1)))
    }
    def predict(v: Vector): Double = m.predict(v)
  }

  /** The optimizer iterations a fitted linear model (LR, SVM) trained
    * for, from its training summary; None for any other model. */
  def totalIterations(model: AlarmModel): Option[Int] = model match {
    case SparkModel(_, m: LogisticRegressionModel) if m.hasSummary => Some(m.summary.totalIterations)
    case SparkModel(_, m: LinearSVCModel) if m.hasSummary => Some(m.summary.totalIterations)
    case _ => None
  }

  /** Random Forest (Table 3). */
  final case class RandomForest(params: Hyperparams.RandomForestParams = Hyperparams.rf,
                                seed: Long = 42) extends AlarmClassifier {
    val name = "RF"
    def fit(train: DataFrame): AlarmModel = SparkModel(name, new RandomForestClassifier()
      .setMaxDepth(params.maxDepth)
      .setNumTrees(params.numTrees)
      .setSeed(seed)
      .fit(train))
  }

  /** The training set of a linear learner: one partition. Spark ML's
    * `RDDLossFunction` sums each optimizer iteration's loss and gradient
    * with `treeAggregate(..., finalAggregateOnExecutor = true)`, which over
    * more than one partition is a two-stage job that shuffles the partial
    * sums onto one reducer task. Over one partition every iteration is one
    * single-task stage; at the sizes trained here Spark's per-job and
    * per-stage fixed cost outweighs the parallel gradient it gives up. */
  private def onePartition(train: DataFrame): DataFrame = train.coalesce(1)

  /** Logistic Regression (Table 5). A touch of L2 keeps the high-cardinality
    * ZIP one-hots from blowing up via complete separation when only a few
    * alarms per ZIP exist (the paper's full-volume data does not face this;
    * Table 5 specifies no regularizer). */
  final case class Logistic(params: Hyperparams.LogisticRegressionParams = Hyperparams.lr,
                            regParam: Double = 1e-3) extends AlarmClassifier {
    val name = "LR"
    def fit(train: DataFrame): AlarmModel = SparkModel(name, new LogisticRegression()
      .setMaxIter(params.maxIter)
      .setTol(params.tol)
      .setRegParam(regParam)
      .fit(onePartition(train)))
  }

  /** Linear SVM (Table 4). The paper used mllib's SVMWithSGD (stepSize /
    * miniBatchFraction are SGD knobs); Spark 4 retired that API, so we map
    * onto `LinearSVC` (same linear kernel + squared-L2/hinge objective) and
    * keep maxIter/regParam. */
  final case class Svm(params: Hyperparams.SvmParams = Hyperparams.svm) extends AlarmClassifier {
    val name = "SVM"
    def fit(train: DataFrame): AlarmModel = SparkModel(name, new LinearSVC()
      .setMaxIter(params.maxIter)
      .setRegParam(params.regParam)
      .fit(onePartition(train)))
  }
}
