package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MlpSpec extends AnyFunSuite {

  /** Tiny separable dataset: index 0 ⇒ class 0, index 1 ⇒ class 1 (plus a
    * shared constant feature at index 2). */
  private def separable(n: Int, seed: Long = 3): IndexedSeq[(Array[Int], Int)] = {
    val rng = new Random(seed)
    IndexedSeq.fill(n) {
      val y = rng.nextInt(2)
      (Array(y, 2), y)
    }
  }

  /** Labels true with probability `q`; feature 0/1 agrees with the label 90 %
    * of the time, features 2–6 and 7–10 are noise. */
  private def skewed(n: Int, q: Double, seed: Long = 11): IndexedSeq[(Array[Int], Int)] = {
    val rng = new Random(seed)
    IndexedSeq.fill(n) {
      val y = if (rng.nextDouble() < q) 1 else 0
      val f = if (rng.nextDouble() < 0.9) y else 1 - y
      (Array(f, 2 + rng.nextInt(5), 7 + rng.nextInt(4)), y)
    }
  }

  private def accuracy(net: Mlp.Net, data: IndexedSeq[(Array[Int], Int)]): Double =
    data.count { case (x, y) => (net.pTrue(x) >= 0.5) == (y == 1) }.toDouble / data.size

  // Seeds whose first run dies in the 2-node bottleneck (Table 7) and only
  // predicts the majority label; the restart must catch it at any label share.
  for ((q, seed) <- Seq(0.47 -> 1L, 0.3 -> 8L)) {
    val pct = math.round(q * 100)
    test(s"a collapsed run at $pct/${100 - pct} labels is restarted") {
      val data = skewed(1000, q)
      val majority = math.max(data.count(_._2 == 1), data.count(_._2 == 0)).toDouble / data.size
      val cfg = Mlp.Config(epochs = 10, seed = seed)
      assert(accuracy(Mlp.train(data, 11, cfg.copy(restarts = 0)), data) == majority)
      val acc = accuracy(Mlp.train(data, 11, cfg), data)
      assert(acc > 0.85, s"accuracy $acc, majority share $majority")
    }
  }

  test("forward produces a probability distribution") {
    val net = Mlp.train(separable(10), dim = 3, Mlp.Config(epochs = 1))
    val p = net.forward(Array(0, 2))
    assert(p.length == 2)
    assert(math.abs(p.sum - 1.0) < 1e-9)
    assert(p.forall(x => x >= 0 && x <= 1))
  }

  test("training is deterministic in the seed") {
    val a = Mlp.train(separable(100), 3, Mlp.Config(epochs = 5, seed = 9))
    val b = Mlp.train(separable(100), 3, Mlp.Config(epochs = 5, seed = 9))
    assert(a.w1.toSeq == b.w1.toSeq && a.w3.toSeq == b.w3.toSeq)
  }

  test("different seeds give different weights") {
    val a = Mlp.train(separable(100), 3, Mlp.Config(epochs = 5, seed = 1))
    val b = Mlp.train(separable(100), 3, Mlp.Config(epochs = 5, seed = 2))
    assert(a.w1.toSeq != b.w1.toSeq)
  }

  test("loss decreases with training on separable data") {
    val data = separable(400)
    val before = Mlp.train(data, 3, Mlp.Config(epochs = 0)).loss(data)
    val after  = Mlp.train(data, 3, Mlp.Config(epochs = 20)).loss(data)
    assert(after < before, s"loss went $before -> $after")
  }

  test("learns a separable problem to near-perfect accuracy") {
    val data = separable(400)
    val net = Mlp.train(data, 3, Mlp.Config(epochs = 30))
    val acc = data.count { case (x, y) => (net.pTrue(x) >= 0.5) == (y == 1) }.toDouble / data.size
    assert(acc > 0.99, s"accuracy $acc")
  }

  test("learns XOR (a non-linear concept a linear model cannot)") {
    // One-hot encoding of two binary features: x1∈{idx 0,1}, x2∈{idx 2,3}.
    val rng = new Random(5)
    val data = IndexedSeq.fill(400) {
      val a = rng.nextInt(2); val b = rng.nextInt(2)
      (Array(a, 2 + b), a ^ b)
    }
    val net = Mlp.train(data, 4,
      Mlp.Config(hidden1 = 16, hidden2 = 8, epochs = 300, learningRate = 0.05, seed = 2))
    val acc = data.count { case (x, y) => (net.pTrue(x) >= 0.5) == (y == 1) }.toDouble / data.size
    assert(acc > 0.95, s"XOR accuracy $acc")
  }

  test("backpropagation matches numerical gradients") {
    // One sample, momentum 0, tiny lr: Δw = -lr * grad exactly.
    val data = IndexedSeq((Array(0, 2), 1))
    val lr = 1e-6
    val cfg0 = Mlp.Config(hidden1 = 4, hidden2 = 3, epochs = 0, seed = 33, restarts = 0)
    val cfg1 = cfg0.copy(epochs = 1, batchSize = 1, learningRate = lr, momentum = 0.0)
    val net0 = Mlp.train(data, 3, cfg0)
    val net1 = Mlp.train(data, 3, cfg1)

    def numGrad(get: Mlp.Net => Array[Double], i: Int): Double = {
      val eps = 1e-6
      val nPlus  = Mlp.train(data, 3, cfg0); get(nPlus)(i) += eps
      val nMinus = Mlp.train(data, 3, cfg0); get(nMinus)(i) -= eps
      (nPlus.loss(data) - nMinus.loss(data)) / (2 * eps)
    }

    // Check a spread of weights across all three layers.
    val checks: Seq[(Mlp.Net => Array[Double], Int)] = Seq(
      ((n: Mlp.Net) => n.w1, 0), ((n: Mlp.Net) => n.w1, 9),
      ((n: Mlp.Net) => n.w2, 0), ((n: Mlp.Net) => n.w2, 5),
      ((n: Mlp.Net) => n.w3, 0), ((n: Mlp.Net) => n.w3, 3),
      ((n: Mlp.Net) => n.b1, 1), ((n: Mlp.Net) => n.b2, 0), ((n: Mlp.Net) => n.b3, 1))
    checks.foreach { case (get, i) =>
      val analytic = (get(net0)(i) - get(net1)(i)) / lr
      val numeric  = numGrad(get, i)
      assert(math.abs(analytic - numeric) < 1e-3,
        s"gradient mismatch at idx $i: analytic=$analytic numeric=$numeric")
    }
  }

  test("W1 rows of never-active features stay at initialization") {
    val data = separable(50) // only indices 0,1,2 are ever active
    val cfg = Mlp.Config(hidden1 = 4, hidden2 = 3, seed = 21, restarts = 0)
    val net0 = Mlp.train(data, 10, cfg.copy(epochs = 0))
    val net1 = Mlp.train(data, 10, cfg.copy(epochs = 3))
    // Row 7 was never touched by any sample.
    val row0 = net0.w1.slice(7 * 4, 8 * 4).toSeq
    val row1 = net1.w1.slice(7 * 4, 8 * 4).toSeq
    assert(row0 == row1)
  }

  test("pTrue is within [0,1]") {
    val net = Mlp.train(separable(50), 3, Mlp.Config(epochs = 5))
    (0 until 3).foreach { i =>
      val p = net.pTrue(Array(i))
      assert(p >= 0.0 && p <= 1.0)
    }
  }

  test("training on empty data is rejected") {
    intercept[IllegalArgumentException] { Mlp.train(IndexedSeq.empty, 3, Mlp.Config()) }
  }

  test("loss on confident correct predictions is near zero") {
    val data = separable(400)
    val net = Mlp.train(data, 3, Mlp.Config(epochs = 50))
    assert(net.loss(data) < 0.1)
  }
}
