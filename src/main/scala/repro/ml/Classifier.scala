package repro.ml

import org.apache.spark.sql.DataFrame

/** Unified view over the four algorithms of Section 5.3.
  *
  * `fit` consumes an encoded DataFrame (columns `features`, `feat_idx`,
  * `label`); the returned model's `transform` adds:
  *  - `prediction` (0.0 / 1.0) and
  *  - `p_true` — the confidence that the alarm is true, which the paper
  *    stresses is as important to the ARC operator as the verification
  *    itself (Section 6.1 "Provide probability of verification").
  */
trait AlarmClassifier {
  def name: String
  def fit(train: DataFrame): AlarmModel
}

trait AlarmModel extends Serializable {
  def name: String
  def transform(df: DataFrame): DataFrame
}

object Metrics {
  /** Fraction of rows where `prediction` equals `label`. */
  def accuracy(scored: DataFrame): Double = {
    import org.apache.spark.sql.functions._
    val r = scored.agg(
      avg(when(col("prediction") === col("label").cast("double"), 1.0).otherwise(0.0))
    ).collect()(0)
    r.getDouble(0)
  }
}
