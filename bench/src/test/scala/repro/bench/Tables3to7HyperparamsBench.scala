package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Reports
import repro.ml.Hyperparams

/** Tables 3–7 — hyperparameters of the four learning algorithms. */
class Tables3to7HyperparamsBench extends AnyFunSuite {

  test("Tables 3-7: hyperparameters match the paper verbatim") {
    BenchEnv.section("Tables 3-7: hyperparameters")
    println(Reports.tables3to7())
    assert(Hyperparams.rf.maxDepth == 30 && Hyperparams.rf.numTrees == 50)
    assert(Hyperparams.svm.maxIter == 2000 && Hyperparams.svm.regParam == 0.01)
    assert(Hyperparams.lr.maxIter == 500 && Hyperparams.lr.tol == 1e-6)
    assert(Hyperparams.dnn.maxEpochs == 10000 && Hyperparams.dnn.miniBatchSize == 200)
    assert(Hyperparams.arch.hidden1 == 50 && Hyperparams.arch.hidden2 == 2)
  }
}
