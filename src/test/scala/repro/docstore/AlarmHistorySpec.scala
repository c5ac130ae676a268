package repro.docstore

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkJobs, SparkSpec, TestFixtures}

class AlarmHistorySpec extends SparkSpec {

  /** A histogram as a set of (device, bucket start, alarms). */
  private def rows(hist: DataFrame): Set[(String, Long, Long)] =
    hist.collect().map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSet

  /** The indexed histogram equals the one over the parsed documents. */
  private def assertIndexed(h: AlarmHistory, devices: Seq[String], fromEpoch: Long,
                            bucketSec: Long): Set[(String, Long, Long)] = {
    val got = rows(h.histogram(devices, fromEpoch, bucketSec))
    val docs = h.historyDf
    val expect =
      if (docs.columns.contains("device_addr")) rows(AlarmHistory.histogramOf(docs, devices, fromEpoch, bucketSec))
      else Set.empty[(String, Long, Long)]
    assert(got == expect)
    got
  }

  private def epochDocs(docs: Seq[(String, Long)]): Seq[String] =
    docs.map { case (d, ts) => s"""{"device_addr":"$d","ts_epoch":$ts}""" }

  private lazy val (store, history) = {
    val s = new DocStore(spark)
    val h = new AlarmHistory(spark, s)
    h.ingest(TestFixtures.sitasys(spark).limit(800))
    (s, h)
  }

  private lazy val someDevices: Seq[String] =
    history.historyDf.select("device_addr").distinct().limit(5)
      .collect().map(_.getString(0)).toSeq

  test("ingest stores every alarm as a document with ts_epoch") {
    assert(store.count("alarms") == 800)
    assert(history.historyDf.columns.contains("ts_epoch"))
    assert(!history.historyDf.columns.contains("ts"))
  }

  test("a history fed only by ingest answers its first histogram with one Spark job") {
    val alarms = TestFixtures.sitasys(spark).limit(300)
    val h = new AlarmHistory(spark, new DocStore(spark))
    h.ingest(alarms)
    val devices = alarms.select("device_addr").distinct().limit(5).collect().map(_.getString(0)).toSeq
    val (hist, jobs) = SparkJobs.recorded(spark)(h.histogram(devices, 0L).collect())
    assert(hist.nonEmpty)
    assert(jobs.size == 1, jobs)
  }

  test("ingest is additive (long-term storage)") {
    val s = new DocStore(spark)
    val h = new AlarmHistory(spark, s)
    h.ingest(TestFixtures.sitasys(spark).limit(10))
    h.ingest(TestFixtures.sitasys(spark).limit(15))
    assert(s.count("alarms") == 25)
  }

  test("histogram covers exactly the requested devices") {
    val hist = history.histogram(someDevices, 0L)
    val devs = hist.select("device_addr").distinct().collect().map(_.getString(0)).toSet
    assert(devs.subsetOf(someDevices.toSet))
    assert(devs.nonEmpty)
  }

  test("histogram bucket starts are aligned to the bucket width") {
    val hist = history.histogram(someDevices, 0L, bucketSec = 3600)
    assert(hist.where(col("bucket_start") % 3600 =!= 0).count() == 0)
  }

  test("histogram counts sum to the device's alarms past the cutoff") {
    val dev = someDevices.head
    val total = history.historyDf.where(col("device_addr") === dev).count()
    val summed = history.histogram(Seq(dev), 0L)
      .agg(sum("n_alarms")).collect()(0).getLong(0)
    assert(summed == total)
  }

  test("the from-epoch cutoff filters old alarms") {
    val dev = someDevices.head
    val cutoff = 1451606400L // 2016-01-01: mid-window of the Sitasys data
    val expect = history.historyDf
      .where(col("device_addr") === dev && col("ts_epoch") >= cutoff).count()
    val got = history.histogram(Seq(dev), cutoff)
      .agg(coalesce(sum("n_alarms"), lit(0L))).collect()(0).getLong(0)
    assert(got == expect)
  }

  test("histogram matches the DuckDB oracle") {
    val histInput = history.historyDf.select("device_addr", "ts_epoch")
    val devList = someDevices.map(d => s"'$d'").mkString(", ")
    val sql =
      s"""SELECT device_addr,
         |       CAST(FLOOR(CAST(ts_epoch AS BIGINT) / 3600) * 3600 AS BIGINT) AS bucket_start,
         |       COUNT(*) AS n_alarms
         |FROM history
         |WHERE device_addr IN ($devList) AND CAST(ts_epoch AS BIGINT) >= 1443657600
         |GROUP BY device_addr, bucket_start""".stripMargin
    Oracle.assertEquivalent(AlarmHistory.histogramOf(histInput, someDevices, 1443657600L, 3600),
      sql, "history" -> histInput)
    Oracle.assertEquivalent(history.histogram(someDevices, 1443657600L, 3600),
      sql, "history" -> histInput)
  }

  test("property: the indexed histogram equals histogramOf over the documents") {
    val genDocs = Gen.listOf(Gen.zip(Gen.oneOf("d0", "d1", "d2", "d3"), Gen.chooseNum(-5000L, 100000L)))
    val genCase = for {
      batches   <- Gen.chooseNum(1, 3).flatMap(n => Gen.listOfN(n, genDocs))
      devices   <- Gen.someOf("d0", "d1", "d2", "d4")
      fromEpoch <- Gen.chooseNum(-6000L, 100000L)
      bucketSec <- Gen.chooseNum(1L, 20000L)
    } yield (batches, devices.toSeq, fromEpoch, bucketSec)
    import spark.implicits._
    val prop = Prop.forAllNoShrink(genCase) { case (batches, devices, fromEpoch, bucketSec) =>
      val h = new AlarmHistory(spark, new DocStore(spark))
      batches.foreach(b => h.ingest(b.toDF("device_addr", "ts_epoch")))
      assertIndexed(h, devices, fromEpoch, bucketSec)
      true
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(25)
      .withInitialSeed(Seed(20180326L)).withWorkers(1), prop)
    assert(result.passed, result.status.toString)
  }

  test("ingest after a query is reflected by the next histogram") {
    import spark.implicits._
    val h = new AlarmHistory(spark, new DocStore(spark))
    h.ingest(Seq(("d1", 1000L), ("d2", 1500L)).toDF("device_addr", "ts_epoch"))
    assert(assertIndexed(h, Seq("d1", "d2"), 0L, 3600) == Set(("d1", 0L, 1L), ("d2", 0L, 1L)))
    h.ingest(Seq(("d1", 2000L), ("d1", 7300L)).toDF("device_addr", "ts_epoch"))
    assert(assertIndexed(h, Seq("d1", "d2"), 0L, 3600) ==
      Set(("d1", 0L, 2L), ("d1", 7200L, 1L), ("d2", 0L, 1L)))
  }

  test("out-of-order timestamps are bucketed and cut off like ordered ones") {
    import spark.implicits._
    val h = new AlarmHistory(spark, new DocStore(spark))
    h.ingest(Seq(("d1", 9000L), ("d1", 100L), ("d1", 7300L), ("d1", 3700L), ("d1", 50L))
      .toDF("device_addr", "ts_epoch"))
    h.ingest(Seq(("d1", 3601L), ("d1", 10L)).toDF("device_addr", "ts_epoch"))
    assert(assertIndexed(h, Seq("d1"), 100L, 3600) ==
      Set(("d1", 0L, 1L), ("d1", 3600L, 2L), ("d1", 7200L, 2L)))
  }

  test("a history that is not its collection's only writer fails instead of answering") {
    import spark.implicits._
    val batch = Seq(("d1", 100L)).toDF("device_addr", "ts_epoch")
    def assertFails(h: AlarmHistory) = {
      assertThrows[IllegalStateException](h.histogram(Seq("d1"), 0L))
      assertThrows[IllegalStateException](h.ingest(batch))
    }
    // A second history over a store that another history has written.
    val s = new DocStore(spark)
    val first = new AlarmHistory(spark, s)
    val second = new AlarmHistory(spark, s)
    first.ingest(batch)
    assertFails(second)
    assert(s.count("alarms") == 1, "a failed ingest stores nothing")
    assert(assertIndexed(first, Seq("d1"), 0L, 3600) == Set(("d1", 0L, 1L)))
    // A document written around the history after its ingest.
    s.insertAll("alarms", Seq("""{"device_addr":"d1","ts_epoch":200}"""))
    assertFails(first)
    // A store filled before the history was built.
    val filled = new DocStore(spark)
    filled.insertAll("alarms", epochDocs(Seq(("d1", 300L), ("d2", 400L))))
    assertFails(new AlarmHistory(spark, filled))
  }

  test("stored documents are byte-identical to df.toJSON") {
    import spark.implicits._
    val alarms = TestFixtures.sitasys(spark).limit(200).cache()
    val mixed = Seq(
      ("d1", 1000L, Some(1.5e-7), null, true, Seq(1, 2)),
      ("d\"2\\", 2000L, None, "é \n ü", false, Seq.empty[Int]),
    ).toDF("device_addr", "ts_epoch", "x", "note", "flag", "arr")
      .withColumn("when", to_timestamp(lit("2016-01-01 12:34:56.789")))
      .withColumn("day", to_date(lit("2016-02-29")))
    for (df <- Seq(alarms, mixed)) {
      val s = new DocStore(spark)
      new AlarmHistory(spark, s).ingest(df)
      val withEpoch = if (df.columns.contains("ts_epoch")) df else df.withColumn("ts_epoch", unix_timestamp(col("ts")))
      assert(s.documents("alarms") == withEpoch.drop("ts").toJSON.collect().toSeq)
    }
    alarms.unpersist()
  }

  test("the histogram query keeps its ts_epoch filter and count aggregate") {
    val plan = history.histogram(someDevices, 1443657600L).queryExecution.optimizedPlan.toString
    assert(plan.contains("ts_epoch") && plan.contains("count(1)") && plan.contains("Aggregate"), plan)
  }

  test("histogram of unknown devices is empty") {
    assert(history.histogram(Seq("ff:ff:ff:ff:ff:ff"), 0L).count() == 0)
  }

  test("ingest accepts frames that already carry ts_epoch") {
    import spark.implicits._
    val s = new DocStore(spark)
    val h = new AlarmHistory(spark, s)
    val df = Seq(("d1", 1000L), ("d1", 5000L)).toDF("device_addr", "ts_epoch")
    h.ingest(df)
    val hist = h.histogram(Seq("d1"), 0L, bucketSec = 4096)
    assert(hist.count() == 2)
  }
}
