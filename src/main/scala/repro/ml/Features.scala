package repro.ml

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** One-hot encoding shared by all four classifiers (Section 5.3.3: "we use
  * the One Hot Encoding … around 800 input features for the Sitasys
  * dataset").
  *
  * Every feature column is treated as categorical (day-of-week and
  * hour-of-day included, as in the paper). Each column reserves one extra
  * "unseen" bucket so values that only occur in the test stream do not
  * crash scoring — they simply carry no signal.
  *
  * The encoder is fit on training data only and then produces, per row, one
  * column `features`: a SparseVector with 1.0 at each active one-hot index
  * (one per column, ascending, since each column's block lies above the
  * previous one's). Spark ML reads the vector, the MLP its indices.
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

  /** The one-hot vector of a row of raw values of any type (aligned with
    * `columns`, read as strings). */
  def vectorOf(r: Row): Vector = {
    val idx = indicesOf((0 until r.length).map(i => if (r.isNullAt(i)) null else r.get(i).toString))
    Vectors.sparse(dim, idx, Array.fill(idx.length)(1.0))
  }

  /** Adds the `features` column; keeps `label` as double. */
  def transform(df: DataFrame): DataFrame =
    df.withColumn("features", CategoricalEncoder.features(columns, () => this))
      .withColumn("label", col("label").cast("double"))
}

object CategoricalEncoder {
  val NullToken = "\u0000null"

  /** The `features` column: one UDF over the struct of the raw `columns`;
    * its closure holds only `encoder` (the encoder, or a broadcast of it). */
  def features(columns: Seq[String], encoder: () => CategoricalEncoder): Column =
    udf((r: Row) => encoder().vectorOf(r)).apply(struct(columns.map(col): _*))

  /** Learn per-column vocabularies (plus an unseen bucket each) from `df`
    * in one single-stage Spark job: each task gathers its partition's
    * distinct string values per column, with null read as [[NullToken]],
    * and the driver merges and sorts them. A literal [[NullToken]] and a
    * null are then one value, as in `indicesOf`. */
  def fit(df: DataFrame, columns: Seq[String]): CategoricalEncoder = {
    val n = columns.size
    val sets = df.select(columns.map(c => coalesce(col(c).cast("string"), lit(NullToken))): _*).rdd
      .aggregate(Array.fill(n)(mutable.HashSet.empty[String]))(
        (acc, r) => { for (i <- 0 until n) acc(i) += r.getString(i); acc },
        (a, b) => { for (i <- 0 until n) a(i) ++= b(i); a })
    val maps = columns.zip(sets).map { case (c, vals) => c -> vals.toArray.sorted.zipWithIndex.toMap }.toMap
    var off = 0
    val offsets = columns.map { c =>
      val o = c -> off
      off += maps(c).size + 1 // +1 unseen bucket
      o
    }.toMap
    new CategoricalEncoder(columns, maps, offsets, off)
  }
}
