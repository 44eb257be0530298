package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.ml.Stats

/** The four expertise measures of Section II-B, computed per matcher as a
  * distributed aggregation over the decision history and reference match
  * (`compute`, the population ETL), or on the driver for one entity's
  * history (`ofHistory`, the sub-matcher windows). Both end in `fromSigma`.
  */
object Measures {

  /** Per-matcher measures:
    *   - P (Eq. 2)  = |sigma ∩ M^e+| / |sigma| over the final matrix;
    *   - R (Eq. 3)  = |sigma ∩ M^e+| / |M^e+|;
    *   - Res (Eq. 4) = Goodman–Kruskal gamma between final-entry confidence
    *     and correctness, with its significance p-value;
    *   - Cal (Eq. 5) = mean *history* confidence − P (the paper averages
    *     over H, not over the final matrix — see Example 1).
    *
    * The gamma statistic needs all of a matcher's (conf, correct) pairs at
    * once, so it is computed inside a per-matcher aggregation over
    * `collect_list` — the rest are plain relational aggregates.
    */
  def compute(spark: SparkSession, decisions: DataFrame, reference: DataFrame,
              refSize: Long): Seq[MatcherMeasures] = {
    val finalMx = MatrixOps.withCorrect(
      MatrixOps.finalMatrix(decisions).where(col("conf") > 0.0), reference)

    val quant = finalMx.groupBy("matcherId").agg(
      count(lit(1)).as("nSigma"),
      sum(when(col("correct"), 1L).otherwise(0L)).as("nCorrect"),
      collect_list(struct(col("conf"), col("correct"))).as("pairs"),
    )
    val histConf = decisions.groupBy("matcherId")
      .agg(avg("conf").as("meanHistConf"))

    // Left join from the history aggregate, so a matcher with an empty sigma
    // keeps its row; its null counts read as 0 (`getAs` of a primitive).
    val joined = histConf.join(quant, Seq("matcherId"), "left").collect()
    joined.toIndexedSeq.map { r =>
      val pairs = Option(r.getAs[scala.collection.Seq[Row]]("pairs")).toSeq.flatten
        .map(p => (p.getAs[Double]("conf"), p.getAs[Boolean]("correct")))
      fromSigma(r.getAs[Long]("matcherId"), r.getAs[Long]("nSigma"), r.getAs[Long]("nCorrect"),
        pairs, r.getAs[Double]("meanHistConf"), refSize)
    }
  }

  /** Measures of one entity from its history alone, on the driver: the
    * same definitions as `compute`, with Eq. 1 from
    * `MatrixOps.finalEntries`. `reference` is M^e+ as (aIdx, bIdx) pairs.
    */
  def ofHistory(id: Long, history: Seq[Decision], reference: Set[(Int, Int)],
                refSize: Long): MatcherMeasures = {
    val pairs = MatrixOps.finalEntries(history).values.toSeq.collect {
      case d if d.conf > 0.0 => (d.conf, reference((d.aIdx, d.bIdx)))
    }
    fromSigma(id, pairs.size.toLong, pairs.count(_._2).toLong, pairs,
      history.map(_.conf).sum / history.size, refSize)
  }

  /** P, R, gamma + p and Cal from a matcher's sigma, as (conf, correct)
    * pairs with their counts, and its mean history confidence. An empty
    * sigma gives P = R = 0, gamma = 0, p = 1 and Cal = mean confidence.
    */
  def fromSigma(id: Long, nSigma: Long, nCorrect: Long, pairs: Seq[(Double, Boolean)],
                meanHistConf: Double, refSize: Long): MatcherMeasures = {
    val p = if (nSigma == 0) 0.0 else nCorrect.toDouble / nSigma
    val rec = if (refSize == 0) 0.0 else nCorrect.toDouble / refSize
    val (gamma, pv) = Stats.gammaTest(pairs.map(_._1), pairs.map(_._2))
    MatcherMeasures(id, p, rec, gamma, pv, meanHistConf - p)
  }

  /** Labels for a set of matchers under train-derived thresholds. */
  def characterize(ms: Seq[MatcherMeasures], t: Thresholds): Map[Long, Array[Boolean]] =
    ms.map(m => m.matcherId -> MatcherMeasures.labels(m, t)).toMap
}
