package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.data.AlarmSchema
import repro.ml._

/** The machine-learning side of the paper's contribution (Section 5.3):
  * label heuristics, train/test preparation, and the four-algorithm
  * evaluation harness behind Figs. 9–10 and Table 8.
  */
object AlarmPipeline {

  /** Feature columns per dataset, mirroring Table 1:
    * Sitasys gets the sensor-specific extras; SF lacks the property type. */
  def featuresFor(dataset: String): Seq[String] = dataset match {
    case "sitasys" => AlarmSchema.GenericFeatures ++ AlarmSchema.SitasysExtras
    case "london"  => AlarmSchema.GenericFeatures
    case "sf"      => AlarmSchema.GenericFeatures.filterNot(_ == "property_type")
    case other     => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** The paper's labeling heuristic for the unlabeled Sitasys data
    * (Section 5.3.2): an alarm reset within Δt minutes is considered false
    * (the owner shut it off quickly), longer-running alarms true. */
  def labelByDuration(df: DataFrame, deltaTMinutes: Double): DataFrame =
    df.withColumn("label",
      when(col("duration_sec") >= lit(deltaTMinutes * 60.0), 1).otherwise(0))

  /** The 50/50 train/test split (Section 5.1.1): `train` is encoded,
    * `(features, label)`, by the encoder fit on it; `test` keeps the raw
    * feature columns and `label`, as alarms reach the Verification Service.
    * Both are cached; only `train` is materialized here. */
  final case class Prepared(train: DataFrame, test: DataFrame, encoder: CategoricalEncoder)

  def prepare(df: DataFrame, features: Seq[String], seed: Long = 99): Prepared = {
    val split = df.randomSplit(Array(0.5, 0.5), seed)
    val (tr, te) = (split(0), split(1))
    val enc = CategoricalEncoder.fit(tr, features)
    val train = enc.transform(tr).select("features", "label").cache()
    train.count()
    Prepared(train, te.select((features :+ "label").map(col): _*).cache(), enc)
  }

  /** The four algorithms of Section 5.3 at the single-node training budget
    * `knobs` (paper values live in [[Hyperparams]]; the trims are reported
    * in EXPERIMENTS.md). */
  def algorithms(knobs: Reports.MlKnobs): Seq[AlarmClassifier] = Seq(
    SparkClassifiers.RandomForest(Hyperparams.RandomForestParams(knobs.rfMaxDepth, knobs.rfNumTrees)),
    SparkClassifiers.Svm(Hyperparams.svm.copy(maxIter = knobs.svmMaxIter)),
    SparkClassifiers.Logistic(),
    Mlp.DnnClassifier(Mlp.Config(epochs = knobs.dnnEpochs)),
  )

  final case class EvalResult(algorithm: String, accuracy: Double,
                              trainTimeSec: Double, model: AlarmModel)

  /** Train on `prepared.train`, report the accuracy of the Verification
    * Service's verdicts on the raw `prepared.test`. */
  def evaluate(clf: AlarmClassifier, prepared: Prepared): EvalResult = {
    val t0 = System.nanoTime()
    val model = clf.fit(prepared.train)
    val trainSec = (System.nanoTime() - t0) / 1e9
    val acc = Metrics.accuracy(new VerificationService(prepared.encoder, model).verify(prepared.test))
    EvalResult(clf.name, acc, trainSec, model)
  }
}
