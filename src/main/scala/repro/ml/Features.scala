package repro.ml

import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** One-hot encoding shared by all four classifiers (Section 5.3.3: "we use
  * the One Hot Encoding … around 800 input features for the Sitasys
  * dataset").
  *
  * Every feature column is treated as categorical (day-of-week and
  * hour-of-day included, as in the paper). Each column reserves one extra
  * "unseen" bucket so values that only occur in the test stream do not
  * crash scoring — they simply carry no signal.
  *
  * The encoder is fit on training data only and then produces, per row:
  *  - `feat_idx`: the active one-hot indices (one per column) — the sparse
  *    representation consumed by the from-scratch MLP;
  *  - `features`: the equivalent `ml.linalg` SparseVector for Spark ML.
  */
final class CategoricalEncoder private (
    val columns: Seq[String],
    val valueIndex: Map[String, Map[String, Int]],
    val offsets: Map[String, Int],
    val dim: Int) extends Serializable {

  /** Active indices for one row of raw values (aligned with `columns`). */
  def indicesOf(values: Seq[String]): Array[Int] =
    columns.zip(values).map { case (c, v) =>
      val m   = valueIndex(c)
      val off = offsets(c)
      off + m.getOrElse(if (v == null) CategoricalEncoder.NullToken else v, m.size)
    }.toArray

  /** Adds `feat_idx` and `features` columns; keeps `label` as double. */
  def transform(df: DataFrame): DataFrame = {
    val cols = columns
    val self = this
    val idxU = udf((r: Row) => self.indicesOf(cols.indices.map(i =>
      Option(r.get(i)).map(_.toString).orNull)))
    val vecU = udf((idx: Seq[Int]) => {
      val s = idx.toArray.sorted
      Vectors.sparse(self.dim, s, Array.fill(s.length)(1.0))
    })
    df.withColumn("feat_idx", idxU(struct(cols.map(col): _*)))
      .withColumn("features", vecU(col("feat_idx")))
      .withColumn("label", col("label").cast("double"))
  }
}

object CategoricalEncoder {
  val NullToken = "\u0000null"

  /** Learn per-column vocabularies (plus an unseen bucket each) from `df`. */
  def fit(df: DataFrame, columns: Seq[String]): CategoricalEncoder = {
    val maps = columns.map { c =>
      val vals = df.select(col(c).cast("string")).distinct().collect()
        .map(r => Option(r.getString(0)).getOrElse(NullToken)).sorted
      c -> vals.zipWithIndex.toMap
    }.toMap
    var off = 0
    val offsets = columns.map { c =>
      val o = c -> off
      off += maps(c).size + 1 // +1 unseen bucket
      o
    }.toMap
    new CategoricalEncoder(columns, maps, offsets, off)
  }
}
