package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.ml.{AlarmModel, CategoricalEncoder}

/** The Verification Service (Section 4.2(3)): on reception of a new alarm,
  * compute the classification (true/false) and its confidence from a model
  * trained offline.
  *
  * `threshold` models the "My Security Center" customer setting (Section 3):
  * alarms with `p_true` below it are routed to the customer's phone first;
  * only those above go straight to the Alarm Receiving Center.
  *
  * It builds the only scoring UDFs in the program: both drivers score
  * through `score`, and the offline evaluation behind Figs. 9–10 and
  * Tables 8–9 (`AlarmPipeline.evaluate`) through `verify`, so the accuracy
  * reported is that of the served path. The encoder and model reach the
  * executors as one broadcast, made on the first `verify` of each
  * SparkContext; the scoring UDFs hold only that handle, so no batch's
  * tasks carry the vocabularies and model again.
  */
final class VerificationService(val encoder: CategoricalEncoder,
                                val model: AlarmModel,
                                val threshold: Double = 0.5) {

  // The scoring UDFs of the last verify's SparkContext, over the broadcast
  // they read; a new context gets new ones.
  private var scoring: Option[(SparkContext, (Column, Column, Column))] = None

  private def udfs(sc: SparkContext) = synchronized {
    if (!scoring.exists(_._1 eq sc)) {
      val b = sc.broadcast((encoder, model))
      val f = col("features")
      scoring = Some((sc, (CategoricalEncoder.features(encoder.columns, () => b.value._1),
        udf((v: Vector) => b.value._2.pTrue(v)).apply(f), udf((v: Vector) => b.value._2.predict(v)).apply(f))))
    }
    scoring.get._2
  }

  /** Score raw alarms: adds `features`, `p_true`, `prediction` and the
    * routing decision `send_to_arc`. */
  def verify(alarms: DataFrame): DataFrame = {
    val (features, pTrue, prediction) = udfs(alarms.sparkSession.sparkContext)
    // `pTrue` appears twice in one projection, which evaluates it once per
    // row (common subexpression elimination).
    alarms.select(col("*"), features.as("features"))
      .select(col("*"), pTrue.as("p_true"), prediction.as("prediction"),
              (pTrue >= lit(threshold)).as("send_to_arc"))
  }

  /** What both consumers hand on per alarm: the ARC needs the alarm id, the
    * verification, its confidence and the routing decision. */
  def score(alarms: DataFrame): DataFrame =
    verify(alarms).select("id", "prediction", "p_true", "send_to_arc")
}
