package repro.ml

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import scala.util.Random

/** From-scratch Deep Neural Network — the substitute for the paper's
  * DeepLearning4J / Theano+Lasagne implementation (Section 5.3), faithful to
  * Tables 6–7: fully connected `input → 50 (ReLU) → 2 (ReLU) → 2 (Softmax)`,
  * cross-entropy loss, minibatch SGD with Nesterov momentum (lr 0.1,
  * momentum 0.9, batch 200).
  *
  * Inputs are one-hot and extremely sparse (one active index per categorical
  * column), so the first layer only ever touches the active rows of W1 —
  * training 100K+ alarms on the driver is cheap without any BLAS.
  */
object Mlp {

  final case class Config(
      hidden1: Int = Hyperparams.arch.hidden1,
      hidden2: Int = Hyperparams.arch.hidden2,
      epochs: Int = 40,   // budget knob; paper trained up to 10,000 (Table 6)
      batchSize: Int = Hyperparams.dnn.miniBatchSize,
      learningRate: Double = Hyperparams.dnn.learningRate,
      momentum: Double = Hyperparams.dnn.momentum,
      seed: Long = 7,
      /** The paper's 2-node second hidden layer (Table 7) can initialize
        * into a dead-ReLU state that never escapes (training loss pinned at
        * the labels' entropy). Retry with a shifted seed up to this many
        * times — still fully deterministic. */
      restarts: Int = 3)

  /** The trained network; broadcastable into scoring UDFs. */
  final class Net(val dim: Int, val h1: Int, val h2: Int,
                  val w1: Array[Double], val b1: Array[Double],
                  val w2: Array[Double], val b2: Array[Double],
                  val w3: Array[Double], val b3: Array[Double]) extends Serializable {

    /** Softmax class probabilities (length 2) for a sparse one-hot input. */
    def forward(active: Array[Int]): Array[Double] = {
      val p = new Array[Double](2)
      forwardInto(active, new Array(h1), new Array(h1), new Array(h2), new Array(h2), p)
      p
    }

    /** The one forward pass, shared with the trainer: writes the pre-ReLU
      * (`z1`, `z2`) and post-ReLU (`a1`, `a2`) activations of the two hidden
      * layers and the softmax class probabilities `p` into the caller's
      * buffers. */
    def forwardInto(active: Array[Int], z1: Array[Double], a1: Array[Double],
                    z2: Array[Double], a2: Array[Double], p: Array[Double]): Unit = {
      System.arraycopy(b1, 0, z1, 0, h1)
      var a = 0
      while (a < active.length) {
        val base = active(a) * h1
        var j = 0
        while (j < h1) { z1(j) += w1(base + j); j += 1 }
        a += 1
      }
      var j = 0
      while (j < h1) { a1(j) = if (z1(j) < 0) 0 else z1(j); j += 1 } // ReLU
      var k = 0
      while (k < h2) {
        var s = b2(k); var i = 0
        while (i < h1) { s += a1(i) * w2(i * h2 + k); i += 1 }
        z2(k) = s; a2(k) = if (s < 0) 0 else s // ReLU
        k += 1
      }
      var c = 0
      while (c < 2) {
        var s = b3(c); var i = 0
        while (i < h2) { s += a2(i) * w3(i * 2 + c); i += 1 }
        p(c) = s
        c += 1
      }
      val m  = math.max(p(0), p(1))
      val e0 = math.exp(p(0) - m); val e1 = math.exp(p(1) - m)
      p(0) = e0 / (e0 + e1); p(1) = e1 / (e0 + e1)
    }

    def pTrue(active: Array[Int]): Double = forward(active)(1)

    /** Mean cross-entropy over a dataset (for convergence tests). */
    def loss(data: IndexedSeq[(Array[Int], Int)]): Double =
      data.iterator.map { case (x, y) =>
        -math.log(math.max(forward(x)(y), 1e-12))
      }.sum / data.size
  }

  /** Train with minibatch SGD + Nesterov momentum (Sutskever formulation:
    * v ← μv − η∇; w ← w + μv_new + extra lookahead term). Restarts from a
    * shifted seed when the run collapses into the dead-bottleneck state. */
  def train(data: IndexedSeq[(Array[Int], Int)], dim: Int, cfg: Config = Config()): Net = {
    require(data.nonEmpty, "cannot train on empty data")
    var net = trainOnce(data, dim, cfg, cfg.seed)
    var attempt = 0
    while (attempt < cfg.restarts && cfg.epochs >= 1 && collapsed(net, data)) {
      attempt += 1
      net = trainOnce(data, dim, cfg, cfg.seed + 101L * attempt)
    }
    net
  }

  /** How close (in nats) a run's loss may come to its labels' entropy
    * before it counts as collapsed. */
  private val CollapseMargin = 0.005

  /** A run is collapsed when its loss on a sample of the training data is
    * within [[CollapseMargin]] of the entropy of that sample's label share:
    * it predicts no better than a constant that has learned only the share,
    * whatever that share is. A one-label sample has nothing to learn. */
  private[ml] def collapsed(net: Net, data: IndexedSeq[(Array[Int], Int)]): Boolean = {
    val sample = data.take(2000)
    val q = sample.count(_._2 == 1).toDouble / sample.size
    q > 0 && q < 1 &&
      net.loss(sample) > -q * math.log(q) - (1 - q) * math.log(1 - q) - CollapseMargin
  }

  private def trainOnce(data: IndexedSeq[(Array[Int], Int)], dim: Int,
                        cfg: Config, seedUsed: Long): Net = {
    val rng = new Random(seedUsed)
    val h1 = cfg.hidden1; val h2 = cfg.hidden2
    def init(n: Int, fanIn: Int): Array[Double] =
      Array.fill(n)(rng.nextGaussian() * math.sqrt(2.0 / math.max(1, fanIn)))
    val w1 = init(dim * h1, 4); val b1 = Array.fill(h1)(0.1)
    val w2 = init(h1 * h2, h1); val b2 = Array.fill(h2)(0.1)
    val w3 = init(h2 * 2, h2);  val b3 = new Array[Double](2)
    // The 0.1 hidden biases keep the narrow 2-node ReLU bottleneck of the
    // paper's architecture (Table 7) from starting dead, which would freeze
    // the whole network at 50% accuracy.
    val net = new Net(dim, h1, h2, w1, b1, w2, b2, w3, b3)

    // Momentum buffers (dense ones for small layers; W1 velocity is dense
    // too — dim*h1 doubles is a few MB at most for our vocabularies).
    val v1 = new Array[Double](dim * h1); val vb1 = new Array[Double](h1)
    val v2 = new Array[Double](h1 * h2);  val vb2 = new Array[Double](h2)
    val v3 = new Array[Double](h2 * 2);   val vb3 = new Array[Double](2)

    val g1 = new Array[Double](dim * h1); val gb1 = new Array[Double](h1)
    val g2 = new Array[Double](h1 * h2);  val gb2 = new Array[Double](h2)
    val g3 = new Array[Double](h2 * 2);   val gb3 = new Array[Double](2)
    // Track which W1 rows were touched this batch to zero/update sparsely.
    val touched = scala.collection.mutable.LinkedHashSet.empty[Int]

    val idx = data.indices.toArray
    val mu = cfg.momentum; val lr = cfg.learningRate

    def nesterovStep(w: Array[Double], v: Array[Double], g: Array[Double],
                     from: Int, until: Int, scale: Double): Unit = {
      var i = from
      while (i < until) {
        val grad  = g(i) * scale
        val vNew  = mu * v(i) - lr * grad
        w(i) += -mu * v(i) + (1 + mu) * vNew
        v(i) = vNew
        g(i) = 0.0
        i += 1
      }
    }

    val z1 = new Array[Double](h1); val a1 = new Array[Double](h1)
    val z2 = new Array[Double](h2); val a2 = new Array[Double](h2)
    val p = new Array[Double](2)
    val d1 = new Array[Double](h1); val d2 = new Array[Double](h2); val d3 = new Array[Double](2)

    for (_ <- 0 until cfg.epochs) {
      // Fisher–Yates shuffle, deterministic in seed.
      var i = idx.length - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val t = idx(i); idx(i) = idx(j); idx(j) = t; i -= 1 }
      var start = 0
      while (start < idx.length) {
        val end = math.min(start + cfg.batchSize, idx.length)
        touched.clear()
        var s = start
        while (s < end) {
          val (x, y) = data(idx(s))
          net.forwardInto(x, z1, a1, z2, a2, p)
          // ---- backward ----
          d3(0) = p(0) - (if (y == 0) 1.0 else 0.0)
          d3(1) = p(1) - (if (y == 1) 1.0 else 0.0)
          var c = 0
          while (c < 2) {
            gb3(c) += d3(c)
            var q = 0
            while (q < h2) { g3(q * 2 + c) += a2(q) * d3(c); q += 1 }
            c += 1
          }
          var k = 0
          while (k < h2) {
            var sum = 0.0; var cc = 0
            while (cc < 2) { sum += w3(k * 2 + cc) * d3(cc); cc += 1 }
            d2(k) = if (z2(k) > 0) sum else 0.0
            gb2(k) += d2(k)
            k += 1
          }
          var q = 0
          while (q < h1) {
            var sum = 0.0; var kk = 0
            while (kk < h2) {
              g2(q * h2 + kk) += a1(q) * d2(kk)
              sum += w2(q * h2 + kk) * d2(kk)
              kk += 1
            }
            d1(q) = if (z1(q) > 0) sum else 0.0
            gb1(q) += d1(q)
            q += 1
          }
          var a = 0
          while (a < x.length) {
            val base = x(a) * h1
            var jj = 0
            while (jj < h1) { g1(base + jj) += d1(jj); jj += 1 }
            touched += x(a)
            a += 1
          }
          s += 1
        }
        // ---- Nesterov updates, gradient averaged over the minibatch ----
        val inv = 1.0 / (end - start)
        for (row <- touched) nesterovStep(w1, v1, g1, row * h1, row * h1 + h1, inv)
        nesterovStep(b1, vb1, gb1, 0, h1, inv)
        nesterovStep(w2, v2, g2, 0, h1 * h2, inv)
        nesterovStep(b2, vb2, gb2, 0, h2, inv)
        nesterovStep(w3, v3, g3, 0, h2 * 2, inv)
        nesterovStep(b3, vb3, gb3, 0, 2, inv)
        start = end
      }
    }
    net
  }

  /** Spark-facing wrapper implementing the shared classifier API. It trains
    * on the active indices of the encoder's one-hot `features`. */
  final case class DnnClassifier(cfg: Config = Config()) extends AlarmClassifier {
    val name = "DNN"
    def fit(train: DataFrame): AlarmModel = {
      val rows = train.select("features", "label").collect()
      val dim = rows.head.getAs[Vector](0).size
      val data = rows.map(r => (active(r.getAs[Vector](0)), r.getDouble(1).toInt)).toIndexedSeq
      DnnModel(Mlp.train(data, dim, cfg))
    }
  }

  final case class DnnModel(net: Net) extends AlarmModel {
    val name = "DNN"
    def pTrue(v: Vector): Double = net.pTrue(active(v))
    def predict(v: Vector): Double = if (pTrue(v) >= 0.5) 1.0 else 0.0
  }

  /** The active (non-zero) indices of a one-hot vector, ascending. */
  private def active(v: Vector): Array[Int] = v.toSparse.indices
}
