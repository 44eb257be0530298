package repro.core

import repro.ml.Stats

/** The four expertise measures of Section II-B, as one kernel over one
  * entity's history: a matcher's (run per matcher by `StudyHandle`) or a
  * sub-matcher window's (run on the driver by `MExI.prepare`).
  */
object Measures {

  /** Measures of one entity:
    *   - P (Eq. 2)  = |sigma ∩ M^e+| / |sigma| over the final matrix;
    *   - R (Eq. 3)  = |sigma ∩ M^e+| / |M^e+|;
    *   - Res (Eq. 4) = Goodman–Kruskal gamma between final-entry confidence
    *     and correctness, with its significance p-value;
    *   - Cal (Eq. 5) = mean *history* confidence − P (the paper averages
    *     over H, not over the final matrix — see Example 1).
    * `reference` is M^e+ as (aIdx, bIdx) pairs. An empty sigma gives
    * P = R = 0, gamma = 0, p = 1 and Cal = mean confidence.
    */
  def ofHistory(id: Long, history: Seq[Decision], reference: Set[(Int, Int)],
                refSize: Long): MatcherMeasures = {
    val pairs = MatrixOps.sigmaOf(history).map(d => (d.conf, reference((d.aIdx, d.bIdx))))
    val nCorrect = pairs.count(_._2).toDouble
    val p = if (pairs.isEmpty) 0.0 else nCorrect / pairs.size
    val rec = if (refSize == 0) 0.0 else nCorrect / refSize
    val (gamma, pv) = Stats.gammaTest(pairs.map(_._1), pairs.map(_._2))
    MatcherMeasures(id, p, rec, gamma, pv, Stats.mean(history.sortBy(_.seq).map(_.conf)) - p)
  }

  /** Labels for a set of matchers under train-derived thresholds. */
  def characterize(ms: Seq[MatcherMeasures], t: Thresholds): Map[Long, Array[Boolean]] =
    ms.map(m => m.matcherId -> MatcherMeasures.labels(m, t)).toMap
}
