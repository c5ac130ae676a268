package repro.ml

import org.apache.spark.ml.linalg.SparseVector
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.{SparkJobs, SparkSpec}

class FeaturesSpec extends SparkSpec {

  import spark.implicits._

  private lazy val df = Seq(
    ("4001", "fire", 1),
    ("4002", "intrusion", 0),
    ("4001", "technical", 1),
  ).toDF("zip", "alarm_type", "label")

  private lazy val enc = CategoricalEncoder.fit(df, Seq("zip", "alarm_type"))

  test("dimension counts every distinct value plus one unseen bucket per column") {
    // zip: {4001, 4002} + unseen = 3; alarm_type: {fire, intrusion, technical} + unseen = 4
    assert(enc.dim == 7)
  }

  test("each row activates exactly one index per column") {
    val out = enc.transform(df).select("features").collect()
    out.foreach(r => assert(r.getAs[SparseVector](0).indices.length == 2))
  }

  test("indices stay within the feature space and respect column blocks") {
    val out = enc.transform(df).select("features").collect()
    out.foreach { r =>
      val idx = r.getAs[SparseVector](0).indices
      val (zi, ai) = (idx(0), idx(1))
      assert(zi >= 0 && zi < 3)
      assert(ai >= 3 && ai < 7)
    }
  }

  test("identical values map to identical indices") {
    assert(enc.indicesOf(Seq("4001", "fire")).toSeq == enc.indicesOf(Seq("4001", "fire")).toSeq)
  }

  test("different values map to different indices") {
    assert(enc.indicesOf(Seq("4001", "fire"))(0) != enc.indicesOf(Seq("4002", "fire"))(0))
  }

  test("unseen values fall into the per-column unseen bucket") {
    val idx = enc.indicesOf(Seq("9999", "flood"))
    assert(idx(0) == 2)  // zip unseen bucket
    assert(idx(1) == 6)  // alarm_type unseen bucket
  }

  test("null values are encoded consistently (not crashed on)") {
    val a = enc.indicesOf(Seq(null, "fire"))
    val b = enc.indicesOf(Seq(null, "fire"))
    assert(a.toSeq == b.toSeq)
  }

  test("the sparse vector mirrors the active indices with 1.0 weights") {
    enc.transform(df).select("zip", "alarm_type", "features").collect().foreach { r =>
      val v = r.getAs[SparseVector](2)
      assert(v.size == enc.dim)
      assert(v.indices.toSeq == enc.indicesOf(Seq(r.getString(0), r.getString(1))).toSeq.sorted)
      assert(v.values.forall(_ == 1.0))
    }
  }

  test("transform adds features vector and double label") {
    val out = enc.transform(df)
    assert(!out.columns.contains("feat_idx") && out.columns.contains("features"))
    val first = out.select("features", "label").head()
    assert(first.getAs[SparseVector](0).size == enc.dim)
    assert(first.get(1).isInstanceOf[Double])
  }

  test("integer-typed categorical columns are stringified consistently") {
    val dfi = Seq((1, "a", 1), (2, "b", 0)).toDF("hour", "x", "label")
    val e = CategoricalEncoder.fit(dfi, Seq("hour", "x"))
    assert(e.dim == 6)
    val out = e.transform(dfi).select("features").collect()
    assert(out.length == 2)
  }

  test("fit is deterministic") {
    val e2 = CategoricalEncoder.fit(df, Seq("zip", "alarm_type"))
    assert(e2.valueIndex == enc.valueIndex && e2.offsets == enc.offsets && e2.dim == enc.dim)
  }

  test("encoder fit on train does not leak test vocabulary") {
    val train = Seq(("a", 1)).toDF("c", "label")
    val test_ = Seq(("b", 0)).toDF("c", "label")
    val e = CategoricalEncoder.fit(train, Seq("c"))
    val out = e.transform(test_).select("features").head().getAs[SparseVector](0).indices
    assert(out.head == 1) // unseen bucket, not a new index
  }

  test("a null and a literal NullToken are one value: indices are dense, the unseen bucket last") {
    val d = Seq(Some(CategoricalEncoder.NullToken), None, Some("a")).toDF("c")
    val e = CategoricalEncoder.fit(d, Seq("c"))
    val n = e.valueIndex("c").size
    assert(e.valueIndex("c").values.toSet == (0 until n).toSet)
    assert(e.dim == n + 1)
    assert(e.indicesOf(Seq("unseen")).head == n)
    assert(e.indicesOf(Seq("a")).head != n)
    assert(e.indicesOf(Seq(null)).toSeq == e.indicesOf(Seq(CategoricalEncoder.NullToken)).toSeq)
  }

  test("fit learns every column's vocabulary in one single-stage Spark job") {
    val spread = df.repartition(4).cache()
    assert(spread.count() == 3)
    val (e, jobs) = SparkJobs.recorded(spark)(CategoricalEncoder.fit(spread, Seq("zip", "alarm_type", "label")))
    assert(jobs == Seq(Seq(4)), "tasks per stage per job")
    assert(e.valueIndex == enc.valueIndex + ("label" -> Map("0" -> 0, "1" -> 1)))
    spread.unpersist(); ()
  }

  test("vocabularies equal the sorted distinct string values, null read as NullToken (seeded property)") {
    val genRows = Gen.listOf(Gen.zip(
      Gen.option(Gen.oneOf("4001", "4002", "B", "a", "", CategoricalEncoder.NullToken)),
      Gen.option(Gen.choose(-3, 30))))
    def reference(values: Seq[Option[Any]]): Map[String, Int] =
      values.map(_.fold(CategoricalEncoder.NullToken)(_.toString)).distinct.sorted.zipWithIndex.toMap
    val prop = Prop.forAll(genRows) { rows =>
      val e = CategoricalEncoder.fit(rows.toDF("s", "i"), Seq("s", "i"))
      e.valueIndex("s") == reference(rows.map(_._1)) && e.valueIndex("i") == reference(rows.map(_._2)) &&
        e.dim == e.valueIndex("s").size + e.valueIndex("i").size + 2
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(40)
      .withInitialSeed(Seed(20180326L)).withWorkers(1), prop)
    assert(result.passed, result.status)
  }
}
