package repro.stream

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.VerificationService
import repro.data.AlarmSchema
import repro.streamlog.AlarmSerializer

/** Structured Streaming flavour of the verification pipeline.
  *
  * The paper coupled Kafka to Spark via Direct DStreams (Structured
  * Streaming was still experimental at project start, Section 4.3); the
  * reproduction targets Structured Streaming per the repro brief. The
  * pipeline is a pure DataFrame transformation, so it runs identically on a
  * batch frame or a streaming source (MemoryStream in tests):
  *
  *   serialized alarm JSON → deserialize UDF → `VerificationService.score`
  *   (one-hot encoder UDF, the model's `p_true` and `prediction` UDFs, ARC
  *   routing decision), the same call the micro-batch `EndToEnd` makes.
  */
object VerificationStream {

  /** Deserialize a `value: String` column into the batch frame's columns.
    * `read` never yields null, so the struct is non-nullable, as in that frame. */
  def parse(serialized: DataFrame, ser: AlarmSerializer): DataFrame = {
    val read = udf((s: String) => ser.read(s)).asNonNullable()
    serialized.select(read(col("value")).as("alarm")).select(AlarmSchema.eventColumns("alarm."): _*)
  }

  /** Build the scored stream from a frame with a `value: String` column. */
  def build(serialized: DataFrame, ser: AlarmSerializer, service: VerificationService): DataFrame =
    service.score(parse(serialized, ser))
}
