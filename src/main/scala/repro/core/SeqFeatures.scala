package repro.core

import org.apache.spark.sql.DataFrame

/** Phi_Seq input extraction: per matcher, the ordered sequence of
  * (confidence, inter-decision time, consensus) triples that feeds the
  * per-label LSTMs (Section III-B):
  *   - h_t.c — the declared confidence;
  *   - h_t.t - h_{t-1}.t — time to reach the decision (clipped/normalized);
  *   - pi_t — how many training matchers kept h_t.e in their final matrix
  *     (normalized by the training population size).
  * `sequence` builds one entity's; `sequences` runs it per matcher of a
  * population in Spark.
  */
object SeqFeatures {

  val FeatureDim = 3
  private val GapClipSeconds = 60.0

  /** Ordered LSTM input sequences for every matcher in `decisions`.
    * `consensus` is the training-population consensus (aIdx, bIdx,
    * consensus); `nTrainMatchers` normalizes it to [0, 1].
    */
  def sequences(decisions: DataFrame, consensus: DataFrame, nTrainMatchers: Int)
      : Map[Long, IndexedSeq[Array[Double]]] = {
    import decisions.sparkSession.implicits._
    val pi = consensus.collect().map { r =>
      (r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx")) -> r.getAs[Long]("consensus").toInt
    }.toMap
    decisions.as[Decision].groupByKey(_.matcherId)
      .mapGroups((id, h) => id -> sequence(h.toVector, pi, nTrainMatchers).toArray)
      .collect().map { case (id, s) => id -> s.toIndexedSeq }.toMap
  }

  /** One entity's LSTM input sequence, in `seq` order: per decision its
    * confidence, the clipped and normalized gap to the previous decision,
    * and pi normalized by the training population. `consensus` holds the
    * pi counts per (aIdx, bIdx); absent pairs count 0.
    */
  def sequence(history: Seq[Decision], consensus: Map[(Int, Int), Int],
               nTrainMatchers: Int): IndexedSeq[Array[Double]] = {
    val h = history.sortBy(_.seq).toIndexedSeq
    h.indices.map { i =>
      val d = h(i)
      val gap = if (i == 0) 0.0 else d.ts - h(i - 1).ts
      Array(
        d.conf,
        math.min(gap, GapClipSeconds) / GapClipSeconds,
        math.min(1.0, consensus.getOrElse((d.aIdx, d.bIdx), 0).toDouble / math.max(1, nTrainMatchers)),
      )
    }
  }
}
