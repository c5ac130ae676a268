package repro.bench

import repro.SparkSpec
import repro.core.Reports
import repro.ml.Hyperparams

/** Table 8 — training time [sec] for the four algorithms × three datasets.
  *
  * Paper numbers (their hardware: 4-node Xeon cluster; Titan X for the DNN):
  *
  * |      | Sitasys | LFB  | SF |
  * | RF   | 600     | 1200 | 75 |
  * | SVM  | 200     | 480  | 20 |
  * | LR   | 100     | 60   | 10 |
  * | DNN  | 5100    | 2460 | 60 |
  */
class Table8TrainingTimeBench extends SparkSpec {

  private lazy val cells = BenchEnv.accuracyCells(spark)
  private def cell(ds: String, algo: String): Reports.AccuracyCell =
    cells.find(c => c.dataset == ds && c.algorithm == algo).get
  private def t(ds: String, algo: String): Double = cell(ds, algo).trainTimeSec

  /** `BENCH_table8.json`: per dataset, the training set's partitions, the
    * training seconds of each algorithm and the optimizer iterations of the
    * two linear learners. */
  private def benchJson: String = {
    def s(x: Double): Double = math.round(x * 1000) / 1000.0
    val rows = Seq("Sitasys", "LFB", "SF").map { ds =>
      val secs = cells.filter(_.dataset == ds).map(c => s""""${c.algorithm}": ${s(c.trainTimeSec)}""")
      def iters(algo: String) = cell(ds, algo).iterations.fold("null")(_.toString)
      s"""    {"dataset": "$ds", "train_partitions": ${cell(ds, "LR").trainPartitions}, """ +
        s""""train_s": {${secs.mkString(", ")}}, "lr_iterations": ${iters("LR")}, "svm_iterations": ${iters("SVM")}}"""
    }
    s"""{
  "table": "table8",
  "sf": ${BenchEnv.sf},
  "nproc": ${BenchEnv.nproc},
  "git_sha": "${BenchEnv.gitSha}",
  "datasets": [
${rows.mkString(",\n")}
  ]
}"""
  }

  test("Table 8: measured training times") {
    BenchEnv.section(s"Table 8: training time [sec] at sf=${BenchEnv.sf}")
    println(Reports.formatGrid(cells, trainingTime = true))
    println(s"wrote ${BenchEnv.writeBench("table8", benchJson)}")
    assert(cells.size == 12)
    assert(cells.forall(_.trainTimeSec > 0))
  }

  test("Table 8 shape: at the paper's epoch budget the DNN is by far the slowest") {
    // We train the DNN for `dnnEpochs` (EXPERIMENTS.md) instead of the
    // paper's 10,000; normalize to the paper's budget for the shape check.
    val paperEquivalent = Hyperparams.dnn.maxEpochs.toDouble / Reports.MlKnobs().dnnEpochs
    for (ds <- Seq("Sitasys", "LFB")) {
      val others = Seq("RF", "SVM", "LR").map(a => t(ds, a))
      assert(t(ds, "DNN") * paperEquivalent > others.max,
        s"$ds: DNN(paper-equivalent)=${t(ds, "DNN") * paperEquivalent} vs others=$others")
    }
  }

  test("Table 8 shape: logistic regression trains faster than the SVM") {
    for (ds <- Seq("Sitasys", "LFB")) {
      assert(t(ds, "LR") < t(ds, "SVM"), s"$ds: LR=${t(ds, "LR")} SVM=${t(ds, "SVM")}")
    }
  }

  test("Table 8 shape: the tiny SF dataset trains fastest per algorithm") {
    for (algo <- Seq("RF", "LR", "DNN")) {
      assert(t("SF", algo) < t("Sitasys", algo), algo)
      assert(t("SF", algo) < t("LFB", algo), algo)
    }
  }
}
