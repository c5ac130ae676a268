package repro.docstore

import java.nio.file.Files
import org.apache.spark.sql.functions._
import repro.SparkSpec

class DocStoreSpec extends SparkSpec {

  private def fresh = new DocStore(spark)

  test("insert and count") {
    val s = fresh
    s.insert("c", """{"a": 1}""")
    s.insert("c", """{"a": 2}""")
    assert(s.count("c") == 2)
  }

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
    s.insert("c", """{"name": "x", "v": 7}""")
    s.insert("c", """{"name": "y", "v": 9}""")
    val df = s.toDF("c")
    assert(df.count() == 2)
    assert(df.columns.toSet == Set("name", "v"))
    assert(df.agg(sum("v")).collect()(0).getLong(0) == 16)
  }

  test("schema drift: documents with different fields coexist (the MongoDB property)") {
    val s = fresh
    s.insert("alarms", """{"zip": "4001", "alarm_type": "fire"}""")
    s.insert("alarms", """{"zip": "8000", "sensor_fw": "2.0.1", "battery": 77}""")
    val df = s.toDF("alarms")
    assert(df.columns.toSet == Set("zip", "alarm_type", "sensor_fw", "battery"))
    assert(df.where(col("alarm_type").isNull).count() == 1)
    assert(df.where(col("battery").isNull).count() == 1)
  }

  test("find performs field-equality selection") {
    val s = fresh
    s.insert("c", """{"zip": "4001", "n": 1}""")
    s.insert("c", """{"zip": "4051", "n": 2}""")
    s.insert("c", """{"zip": "4001", "n": 3}""")
    val hit = s.find("c", "zip", "4001")
    assert(hit.count() == 2)
    assert(hit.agg(sum("n")).collect()(0).getLong(0) == 4)
  }

  test("insertDf stores every DataFrame row as a JSON document") {
    import spark.implicits._
    val s = fresh
    val df = Seq(("a", 1), ("b", 2), ("c", 3)).toDF("k", "v")
    s.insertDf("fromdf", df)
    assert(s.count("fromdf") == 3)
    val back = s.toDF("fromdf")
    assert(back.orderBy("k").collect().map(r => (r.getAs[String]("k"), r.getAs[Long]("v"))).toSeq
      == Seq(("a", 1L), ("b", 2L), ("c", 3L)))
  }

  test("collections are independent") {
    val s = fresh
    s.insert("x", """{"a": 1}""")
    s.insert("y", """{"a": 2}""")
    assert(s.count("x") == 1 && s.count("y") == 1)
    assert(s.collectionNames == Seq("x", "y"))
  }

  test("drop removes a collection") {
    val s = fresh
    s.insert("x", """{"a": 1}""")
    s.drop("x")
    assert(s.count("x") == 0)
  }

  test("save/load round-trips all collections") {
    val s = fresh
    s.insert("c1", """{"a": 1}""")
    s.insert("c1", """{"a": 2}""")
    s.insert("c2", """{"b": "x"}""")
    val dir = Files.createTempDirectory("docstore").toString
    s.save(dir)
    val t = fresh
    t.load(dir)
    assert(t.count("c1") == 2 && t.count("c2") == 1)
    assert(t.toDF("c1").agg(sum("a")).collect()(0).getLong(0) == 3)
  }

  test("load on a missing directory is a no-op") {
    val t = fresh
    t.load("/nonexistent/docstore/dir")
    assert(t.collectionNames.isEmpty)
  }

  test("version changes on every write and never repeats after a drop") {
    val s = fresh
    val seen = scala.collection.mutable.ArrayBuffer(s.version("c"))
    s.insert("c", """{"a": 1}"""); seen += s.version("c")
    s.insertAll("c", Seq("""{"a": 2}""")); seen += s.version("c")
    s.toDF("c").count(); s.count("c")
    assert(s.version("c") == seen.last, "reads must not change the version")
    s.drop("c"); seen += s.version("c")
    s.insert("c", """{"a": 1}"""); seen += s.version("c")
    val dir = Files.createTempDirectory("docstore").toString
    s.save(dir); s.load(dir); seen += s.version("c")
    assert(seen.distinct.size == seen.size)
    s.insert("other", """{"b": 1}""")
    assert(s.version("c") == seen.last, "collections are versioned independently")
  }

  test("concurrent inserts are all retained") {
    val s = fresh
    val threads = (0 until 4).map { t =>
      new Thread(() => (0 until 500).foreach(i => s.insert("c", s"""{"t": $t, "i": $i}""")))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(s.count("c") == 2000)
  }
}
