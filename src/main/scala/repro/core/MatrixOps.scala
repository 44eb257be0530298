package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Matching-matrix construction and match (sigma) extraction (Section
  * II-A2, Eq. 1). `finalEntries` is the one definition of Eq. 1; the
  * DataFrame functions group a population by matcher and run it per group.
  */
object MatrixOps {

  /** Eq. 1 for one history: the latest decision per element pair, keyed by
    * (aIdx, bIdx). Ties on ts break by seq (the later decision wins).
    */
  def finalEntries(history: Iterable[Decision]): Map[(Int, Int), Decision] = {
    val latest = scala.collection.mutable.HashMap.empty[(Int, Int), Decision]
    history.foreach { d =>
      val k = (d.aIdx, d.bIdx)
      if (latest.get(k).forall(c => d.ts > c.ts || (d.ts == c.ts && d.seq > c.seq)))
        latest(k) = d
    }
    latest.toMap
  }

  /** The match sigma of one history: its final entries with confidence
    * > 0, in (aIdx, bIdx) order so that order-sensitive consumers (the
    * greedy bbm predictor) do not depend on how the history arrived.
    */
  def sigmaOf(history: Iterable[Decision]): Vector[Decision] =
    finalEntries(history).values.filter(_.conf > 0.0).toVector.sortBy(d => (d.aIdx, d.bIdx))

  /** Sigma of every matcher in a decision-history DataFrame: one row per
    * positive final entry, with the `Decision` columns.
    */
  def sigma(decisions: DataFrame): DataFrame = {
    import decisions.sparkSession.implicits._
    decisions.as[Decision].groupByKey(_.matcherId)
      .flatMapGroups((_, h) => sigmaOf(h.toVector))
      .toDF()
  }

  /** Consensus pi per element pair: the number of matchers (in the given
    * population — the training set, per Section III-B) whose final matrix
    * includes the pair (sigma has one row per matcher and pair). Output
    * columns: aIdx, bIdx, consensus.
    */
  def consensus(decisions: DataFrame): DataFrame =
    sigma(decisions)
      .groupBy("aIdx", "bIdx")
      .agg(count(lit(1)).as("consensus"))

  /** Consensus pi of a population given as histories: per element pair, the
    * number of histories whose final entry for it is > 0 (`consensus`
    * counts the same from a DataFrame).
    */
  def consensusOf(histories: Iterable[Iterable[Decision]]): Map[(Int, Int), Int] = {
    val counts = scala.collection.mutable.HashMap.empty[(Int, Int), Int]
    histories.foreach { h =>
      sigmaOf(h).foreach { d =>
        val k = (d.aIdx, d.bIdx)
        counts(k) = counts.getOrElse(k, 0) + 1
      }
    }
    counts.toMap
  }
}
