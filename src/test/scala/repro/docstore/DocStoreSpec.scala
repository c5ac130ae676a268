package repro.docstore

import org.apache.spark.sql.functions._
import repro.SparkSpec

class DocStoreSpec extends SparkSpec {

  private def fresh = new DocStore(spark)

  test("insertAll counts every document") {
    val s = fresh
    s.insertAll("c", (1 to 25).map(i => s"""{"a": $i}"""))
    assert(s.count("c") == 25)
  }

  test("empty collection has zero count and empty DataFrame") {
    val s = fresh
    assert(s.count("nope") == 0)
  }

  test("toDF materializes documents with inferred schema") {
    val s = fresh
    s.insertAll("c", Seq("""{"name": "x", "v": 7}""", """{"name": "y", "v": 9}"""))
    val df = s.toDF("c")
    assert(df.count() == 2)
    assert(df.columns.toSet == Set("name", "v"))
    assert(df.agg(sum("v")).collect()(0).getLong(0) == 16)
  }

  test("schema drift: documents with different fields coexist (the MongoDB property)") {
    val s = fresh
    s.insertAll("alarms", Seq("""{"zip": "4001", "alarm_type": "fire"}""",
                              """{"zip": "8000", "sensor_fw": "2.0.1", "battery": 77}"""))
    val df = s.toDF("alarms")
    assert(df.columns.toSet == Set("zip", "alarm_type", "sensor_fw", "battery"))
    assert(df.where(col("alarm_type").isNull).count() == 1)
    assert(df.where(col("battery").isNull).count() == 1)
  }

  test("collections are independent") {
    val s = fresh
    s.insertAll("x", Seq("""{"a": 1}"""))
    s.insertAll("y", Seq("""{"a": 2}"""))
    assert(s.count("x") == 1 && s.count("y") == 1)
  }

  test("concurrent inserts are all retained") {
    val s = fresh
    val threads = (0 until 4).map { t =>
      new Thread(() => (0 until 500).foreach(i => s.insertAll("c", Seq(s"""{"t": $t, "i": $i}"""))))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(s.count("c") == 2000)
  }
}
