package repro.core

import repro.ml.Stats

/** Phi_Beh: aggregated behavioral features over the decision history H
  * (Section III-A, "Aggregated features"): confidence aggregates, decision
  * times, and the number of changed matching decisions.
  */
object BehavioralFeatures {

  val names: Vector[String] = Vector(
    "beh_count", "beh_distinctCorr", "beh_mindChanges",
    "beh_avgConf", "beh_stdConf", "beh_minConf", "beh_maxConf",
    "beh_avgTime", "beh_maxTime", "beh_stdTime", "beh_totalTime",
    "beh_confSlope", "beh_gapSlope",
  )

  /** Feature vector of one history, all zero when it is empty. Gaps are
    * the times between consecutive decisions in `seq` order, so the first
    * decision has none; aggregates over no gaps, and standard deviations
    * of fewer than two values, are 0. Slopes are least-squares trends of
    * confidence (and gap) over the decision index, cov(seq, y) / var(seq):
    * var(seq) and mean(seq) run over every decision, the means involving
    * y over the decisions that have one.
    */
  def ofHistory(history: Seq[Decision]): Array[Double] = {
    if (history.isEmpty) return new Array[Double](names.length)
    val h = history.sortBy(_.seq).toIndexedSeq
    val n = h.length
    val seqs = h.map(_.seq.toDouble)
    val confs = h.map(_.conf)
    val withGap = h.indices.drop(1)
    val gaps = withGap.map(i => h(i).ts - h(i - 1).ts)
    val distinct = h.map(d => (d.aIdx, d.bIdx)).distinct.size

    val meanSeq = Stats.mean(seqs)
    val varSeq = Stats.mean(seqs.map(s => s * s)) - meanSeq * meanSeq
    def slope(ss: Seq[Double], ys: Seq[Double]): Double =
      if (varSeq > 0 && ys.nonEmpty)
        (Stats.mean(ss.zip(ys).map { case (s, y) => s * y }) - meanSeq * Stats.mean(ys)) / varSeq
      else 0.0

    Array(
      n.toDouble, distinct.toDouble, (n - distinct).toDouble,
      Stats.mean(confs), Stats.stddev(confs), confs.min, confs.max,
      Stats.mean(gaps), if (gaps.isEmpty) 0.0 else gaps.max, Stats.stddev(gaps),
      h.map(_.ts).max - h.map(_.ts).min,
      slope(seqs, confs), slope(withGap.map(seqs), gaps),
    )
  }
}
