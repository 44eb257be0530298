package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Matching-matrix construction and match (sigma) extraction (Section
  * II-A2, Eq. 1): as DataFrame transformations for a whole population, and
  * as driver-side kernels over one history for the per-fold inputs.
  */
object MatrixOps {

  /** Eq. 1: the matching matrix holds the latest confidence per element
    * pair. Input: a decision-history DataFrame (matcherId, seq, aIdx, bIdx,
    * conf, ts); output: one row per (matcherId, aIdx, bIdx) with the
    * confidence of the most recent decision. Ties on ts break by seq.
    */
  def finalMatrix(decisions: DataFrame): DataFrame = {
    val w = Window.partitionBy("matcherId", "aIdx", "bIdx")
      .orderBy(col("ts").desc, col("seq").desc)
    decisions
      .withColumn("rn", row_number().over(w))
      .where(col("rn") === 1)
      .select("matcherId", "aIdx", "bIdx", "conf", "ts", "seq")
  }

  /** The match sigma: non-zero entries of the final matrix. */
  def sigma(decisions: DataFrame): DataFrame =
    finalMatrix(decisions).where(col("conf") > 0.0)

  /** Tags each final-matrix entry with membership in the reference match
    * M^e+ (column `correct`). `reference` has columns (aIdx, bIdx).
    */
  def withCorrect(finalMx: DataFrame, reference: DataFrame): DataFrame = {
    val ref = reference.select(col("aIdx"), col("bIdx"), lit(true).as("correct"))
    finalMx.join(ref, Seq("aIdx", "bIdx"), "left")
      .withColumn("correct", coalesce(col("correct"), lit(false)))
  }

  /** Consensus pi per element pair: the number of matchers (in the given
    * population — the training set, per Section III-B) whose final matrix
    * includes the pair. Output columns: aIdx, bIdx, consensus.
    */
  def consensus(decisions: DataFrame): DataFrame =
    sigma(decisions)
      .groupBy("aIdx", "bIdx")
      .agg(countDistinct("matcherId").as("consensus"))

  /** Eq. 1 for one history: the latest decision per element pair, keyed by
    * (aIdx, bIdx). Ties on ts break by seq, as in `finalMatrix`.
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

  /** Consensus pi of a population given as histories: per element pair, the
    * number of histories whose final entry for it is > 0 (`consensus`
    * counts the same from a DataFrame).
    */
  def consensusOf(histories: Iterable[Iterable[Decision]]): Map[(Int, Int), Int] = {
    val counts = scala.collection.mutable.HashMap.empty[(Int, Int), Int]
    histories.foreach { h =>
      finalEntries(h).foreach { case (k, d) =>
        if (d.conf > 0.0) counts(k) = counts.getOrElse(k, 0) + 1
      }
    }
    counts.toMap
  }
}
