package repro.ml

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Unified view over the four algorithms of Section 5.3.
  *
  * `fit` reads the columns `features` (the encoder's one-hot vector) and
  * `label` (0.0 / 1.0) of an encoded DataFrame. The returned model scores
  * one feature vector at a time:
  *  - `predict` gives the verification (0.0 / 1.0) and
  *  - `pTrue` the confidence that the alarm is true, which the paper
  *    stresses is as important to the ARC operator as the verification
  *    itself (Section 6.1 "Provide probability of verification").
  * [[repro.core.VerificationService]] turns a model into scoring columns,
  * for serving and for the offline evaluation alike.
  */
trait AlarmClassifier {
  def name: String
  def fit(train: DataFrame): AlarmModel
}

trait AlarmModel extends Serializable {
  def name: String
  def pTrue(features: Vector): Double
  def predict(features: Vector): Double
}

object Metrics {
  /** Fraction of rows where `prediction` equals `label`. */
  def accuracy(scored: DataFrame): Double = {
    val r = scored.agg(
      avg(when(col("prediction") === col("label").cast("double"), 1.0).otherwise(0.0))
    ).collect()(0)
    r.getDouble(0)
  }
}
