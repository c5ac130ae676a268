package repro.data

import java.sql.Timestamp
import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import repro.streamlog.AlarmEvent

/** The generic alarm data type of the paper's "design for reusability" lesson
  * (Section 6.1): one schema describes all three datasets — Sitasys, London
  * Fire Brigade (LFB) and San Francisco (SF) — with dataset-specific fields
  * left null where the source does not provide them (Table 1).
  *
  * Columns:
  *  - `device_addr`   MAC-like sensor address (Sitasys only) — drives the
  *                    batch-component histograms of Section 5.5
  *  - `zip`           location at ZIP granularity (all datasets)
  *  - `city`          owning city/village from the gazetteer — used only to
  *                    join text-mined incidents (which lack ZIP codes)
  *  - `ts`, `day_of_week` (1–7), `hour_of_day` (0–23)
  *  - `alarm_type`    incident type (fire, intrusion, … / PropertyCategory /
  *                    Call Type per Table 1)
  *  - `property_type` type of supervised premise (absent in SF)
  *  - `sensor_type`, `sw_version`  sensor-specific extras (Sitasys only)
  *  - `duration_sec`  time until the alarm was reset (Sitasys only) — the
  *                    paper's label heuristic thresholds this at Δt
  *  - `label`         ground-truth 1=true alarm, 0=false (LFB/SF: given by the
  *                    dataset; Sitasys: NOT given — the pipeline derives it
  *                    from `duration_sec`)
  *  - `latent_true`   the generator's hidden truth, for diagnostics/tests
  *                    ONLY; never a model feature
  */
final case class LabeledAlarm(
    id: Long,
    device_addr: String,
    zip: String,
    city: String,
    ts: Timestamp,
    day_of_week: Int,
    hour_of_day: Int,
    alarm_type: String,
    property_type: String,
    sensor_type: String,
    sw_version: String,
    duration_sec: Double,
    label: Int,
    latent_true: Int
)

object AlarmSchema {
  /** Feature columns shared by every dataset (the paper's generic set). */
  val GenericFeatures: Seq[String] =
    Seq("zip", "day_of_week", "hour_of_day", "alarm_type", "property_type")

  /** Sitasys-specific extras (sensor information) that push accuracy >90%. */
  val SitasysExtras: Seq[String] = Seq("sensor_type", "sw_version")

  /** Table 1 of the paper: which source field plays which role per dataset. */
  val Table1: Seq[(String, String, String, String, String, String)] = Seq(
    // dataset, location, time, type of location, incident type, label
    ("Sitasys", "ZIP code", "Timestamp", "ObjectType", "Alarm Type", "Alarm Duration"),
    ("London", "ZIP code", "Date/TimeOfCall", "PropertyType", "PropertyCategory", "Incident Group"),
    ("San Francisco", "Zip code Of Incident", "ReceivedDtTm", "-", "Call Type", "Call Final Disposition"),
  )

  /** The alarm-record codec: each [[AlarmEvent]] field and its column, in the
    * order of the batch frame that the encoder, the history and the oracle read. */
  val EventColumns: Seq[(String, String)] = Seq(
    "id" -> "id", "deviceAddr" -> "device_addr", "zip" -> "zip", "tsEpoch" -> "ts_epoch",
    "dayOfWeek" -> "day_of_week", "hourOfDay" -> "hour_of_day", "alarmType" -> "alarm_type",
    "propertyType" -> "property_type", "sensorType" -> "sensor_type", "swVersion" -> "sw_version",
    "durationSec" -> "duration_sec")

  private val ColumnOf: Map[String, String] = EventColumns.toMap

  /** Projects [[AlarmEvent]] fields under `prefix` (`""`, or `"alarm."` for a struct column). */
  def eventColumns(prefix: String): Seq[Column] =
    EventColumns.map { case (field, column) => col(prefix + field).as(column) }

  /** The batch frame of a window of alarms, in `slices` RDD partitions. Over a
    * `LocalRelation` (`createDataset(events)`) the optimizer would run the
    * scoring UDFs on the driver at planning time (`ConvertToLocalRelation`). */
  def eventFrame(spark: SparkSession, events: Seq[AlarmEvent], slices: Int): DataFrame = {
    import spark.implicits._
    spark.createDataset(spark.sparkContext.parallelize(events, slices)).select(eventColumns(""): _*)
  }

  /** A [[LabeledAlarm]] row as the wire record; `tsEpoch` is `ts` in whole seconds. */
  def toEvent(r: Row): AlarmEvent = {
    def get[T](field: String): T = r.getAs[T](ColumnOf(field))
    AlarmEvent(get("id"), get("deviceAddr"), get("zip"), r.getAs[Timestamp]("ts").getTime / 1000,
      get("dayOfWeek"), get("hourOfDay"), get("alarmType"), get("propertyType"),
      get("sensorType"), get("swVersion"), get("durationSec"))
  }
}
