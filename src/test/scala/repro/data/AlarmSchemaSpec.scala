package repro.data

import org.apache.spark.sql.Encoders
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.stream.VerificationStream
import repro.streamlog.{AlarmEvent, Serializers, SerializersSpec}

class AlarmSchemaSpec extends SparkSpec {
  import spark.implicits._

  private val ser = Serializers.FastJsonSerializer

  private lazy val rows = TestFixtures.sitasys(spark).orderBy("id").limit(300).collect()
  private lazy val events = rows.toIndexedSeq.map(AlarmSchema.toEvent)

  test("a labeled row survives row -> AlarmEvent -> frame on every shared column") {
    val labeled = spark.createDataFrame(java.util.Arrays.asList(rows: _*),
      TestFixtures.sitasys(spark).schema)
    val expected = labeled.select(AlarmSchema.EventColumns.map {
      case (_, "ts_epoch") => unix_timestamp(col("ts")).as("ts_epoch")
      case (_, column)     => col(column)
    }: _*)
    assert(AlarmSchema.eventFrame(spark, events, 2).collect().toSeq == expected.collect().toSeq)
  }

  test("the batch frame keeps the encoder's column names and order") {
    assert(AlarmSchema.eventFrame(spark, events.take(1), 1).columns.toSeq == Seq("id",
      "device_addr", "zip", "ts_epoch", "day_of_week", "hour_of_day", "alarm_type",
      "property_type", "sensor_type", "sw_version", "duration_sec"))
  }

  test("the streaming parse yields exactly the batch frame") {
    val parsed = VerificationStream.parse(events.map(ser.write).toDF("value"), ser)
    val frame = AlarmSchema.eventFrame(spark, events, 2)
    assert(parsed.schema == frame.schema)
    assert(parsed.collect().toSeq == frame.collect().toSeq)
  }

  test("the batch frame has one RDD partition per slice, with the same rows and schema") {
    val local = events.toDS().select(AlarmSchema.eventColumns(""): _*)
    Seq(1, 3).foreach { k =>
      val frame = AlarmSchema.eventFrame(spark, events, k)
      assert(frame.rdd.getNumPartitions == k)
      assert(frame.schema == local.schema)
      assert(frame.collect().toSeq == local.collect().toSeq)
    }
  }

  test("from_json over the wire JSON, projected through the codec, equals the codec frame") {
    val drawn = SerializersSpec.randomEvents
    val wire = drawn.map(ser.write).toDF("value")
      .select(from_json(col("value"), Encoders.product[AlarmEvent].schema).as("alarm"))
      .select(AlarmSchema.eventColumns("alarm."): _*)
    assert(wire.collect().toSeq == AlarmSchema.eventFrame(spark, drawn, 2).collect().toSeq)
  }
}
