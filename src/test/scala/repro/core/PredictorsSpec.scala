package repro.core

import repro.SparkSpec

class PredictorsSpec extends SparkSpec {
  import spark.implicits._

  private def idx(name: String): Int = Predictors.names.indexOf(name)

  test("feature vector covers all declared names") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.5)), 4, 4)
    assert(f.length === Predictors.names.length)
  }

  test("empty matrix yields an all-zero vector") {
    assert(Predictors.fromEntries(Seq.empty, 4, 4).forall(_ === 0.0))
  }

  test("confidence aggregates are correct") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.2), (1, 1, 0.6), (2, 2, 1.0)), 4, 4)
    assert(math.abs(f(idx("lrsm_avgConf")) - 0.6) < 1e-12)
    assert(f(idx("lrsm_maxConf")) === 1.0)
    assert(math.abs(f(idx("lrsm_stdConf")) - 0.4) < 1e-12)
  }

  test("coverage ratios count distinct rows and columns") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5)), 4, 8)
    assert(f(idx("lrsm_nSigma")) === 3.0)
    assert(math.abs(f(idx("lrsm_rowCov")) - 2.0 / 4) < 1e-12)
    assert(math.abs(f(idx("lrsm_colCov")) - 2.0 / 8) < 1e-12)
  }

  test("dominants: a diagonal matrix is fully dominant") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.9), (1, 1, 0.8), (2, 2, 0.7)), 3, 3)
    assert(f(idx("lrsm_dom")) === 1.0)
  }

  test("dominants: row/column collisions reduce dominance") {
    // Two entries in the same row: only the larger is dominant.
    val f = Predictors.fromEntries(Seq((0, 0, 0.9), (0, 1, 0.4)), 3, 3)
    assert(math.abs(f(idx("lrsm_dom")) - 0.5) < 1e-12)
  }

  test("bpm averages the per-row maxima") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.9), (0, 1, 0.5), (1, 2, 0.3)), 3, 3)
    assert(math.abs(f(idx("lrsm_bpm")) - (0.9 + 0.3) / 2) < 1e-12)
  }

  test("bbm is the greedy 1:1 matching weight over all entries") {
    // Greedy picks (0,0,0.9) then (1,1,0.6); (0,1,0.8) conflicts on row 0.
    val f = Predictors.fromEntries(Seq((0, 0, 0.9), (0, 1, 0.8), (1, 1, 0.6)), 3, 3)
    assert(math.abs(f(idx("lrsm_bbm")) - (0.9 + 0.6) / 3) < 1e-12)
  }

  test("conflicts counts 1:1-constraint violations") {
    // (0,0) and (0,1) share row 0; (1,1) shares col 1 with (0,1); (2,2) clean.
    val f = Predictors.fromEntries(
      Seq((0, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5), (2, 2, 0.5)), 4, 4)
    assert(math.abs(f(idx("lrsm_conflicts")) - 0.75) < 1e-12)
    val clean = Predictors.fromEntries(Seq((0, 0, 0.5), (1, 1, 0.5)), 4, 4)
    assert(clean(idx("lrsm_conflicts")) === 0.0)
  }

  test("matrix norms match hand computation") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.6), (0, 1, 0.8), (1, 0, 0.3)), 3, 3)
    assert(math.abs(f(idx("lrsm_norm1")) - 0.9) < 1e-12)    // max col sum (col 0)
    assert(math.abs(f(idx("lrsm_normsinf")) - 1.4) < 1e-12) // max row sum (row 0)
    assert(math.abs(f(idx("lrsm_norm2")) - math.sqrt(0.36 + 0.64 + 0.09)) < 1e-12)
  }

  test("mcd measures distance from a binary matrix") {
    val crisp = Predictors.fromEntries(Seq((0, 0, 1.0), (1, 1, 0.95)), 3, 3)
    val fuzzy = Predictors.fromEntries(Seq((0, 0, 0.5), (1, 1, 0.45)), 3, 3)
    assert(crisp(idx("lrsm_mcd")) < fuzzy(idx("lrsm_mcd")))
    assert(math.abs(fuzzy(idx("lrsm_mcd")) - (0.5 + 0.45) / 2) < 1e-12)
  }

  test("pca1 is 1 for a single-row-pattern matrix and splits otherwise") {
    // All rows proportional -> rank-1 -> pca1 = 1.
    val f = Predictors.fromEntries(
      Seq((0, 0, 0.2), (0, 1, 0.4), (1, 0, 0.4), (1, 1, 0.8), (2, 0, 0.1), (2, 1, 0.2)),
      4, 4)
    assert(f(idx("lrsm_pca1")) > 0.99)
    assert(f(idx("lrsm_pca2")) < 0.01)
  }

  test("degenerate single-entry matrices default pca to (1, 0)") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.7)), 3, 3)
    assert(f(idx("lrsm_pca1")) === 1.0 && f(idx("lrsm_pca2")) === 0.0)
  }

  /** Phi_LRSM rows of `decisions`' matchers from the population pass. */
  private def lrsmRows(decisions: Seq[Decision]): Map[Long, Seq[Double]] =
    Studies.withHandle(spark, Studies.of(decisions))(_.baseFeatures).rows
      .view.mapValues(_.take(Predictors.names.length).toSeq).toMap

  test("DataFrame stage matches the pure kernel per matcher") {
    val rows = lrsmRows(Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(1L, 1, 1, 1, 0.7, 2.0),
      Decision(2L, 0, 2, 2, 0.4, 1.0),
    ))
    val (nA, nB) = (Studies.task.nA, Studies.task.nB)
    assert(rows(1L) === Predictors.fromEntries(Seq((0, 0, 0.9), (1, 1, 0.7)), nA, nB).toSeq)
    assert(rows(2L) === Predictors.fromEntries(Seq((2, 2, 0.4)), nA, nB).toSeq)
  }

  test("DataFrame stage applies Eq. 1 before scoring") {
    // The revisit (conf 0.2 at t=5) must override conf 0.9 at t=1.
    val r = lrsmRows(Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(1L, 1, 0, 0, 0.2, 5.0),
    ))(1L)
    assert(r(idx("lrsm_avgConf")) === 0.2)
    assert(r(idx("lrsm_nSigma")) === 1.0)
  }

  test("bbm ties break in (aIdx, bIdx) order whatever order the decisions arrive in") {
    // Two 1.0 entries in row 0. Taking (0,0) first leaves (1,2):
    // (1.0 + 0.8) / 4; taking (0,2) first would leave (1,0): (1.0 + 0.9) / 4.
    // Eq. 1's hash map yields (0,2) before (0,0) for these pairs.
    val h = Vector(
      Decision(1L, 0, 0, 2, 1.0, 1.0),
      Decision(1L, 1, 0, 0, 1.0, 2.0),
      Decision(1L, 2, 1, 0, 0.9, 3.0),
      Decision(1L, 3, 1, 2, 0.8, 4.0),
    )
    def bbm(entries: Seq[Decision]) =
      Predictors.fromEntries(entries.map(d => (d.aIdx, d.bIdx, d.conf)), 4, 4)(idx("lrsm_bbm"))
    assert(bbm(h) === 1.9 / 4, "the kernel itself follows entry order")
    for (order <- Seq(h, h.reverse)) {
      assert(bbm(MatrixOps.sigmaOf(order)) === 1.8 / 4)
      assert(lrsmRows(order)(1L)(idx("lrsm_bbm")) === 1.8 / 4)
    }
  }
}
