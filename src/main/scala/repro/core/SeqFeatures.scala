package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** Phi_Seq input extraction: per matcher, the ordered sequence of
  * (confidence, inter-decision time, consensus) triples that feeds the
  * per-label LSTMs (Section III-B):
  *   - h_t.c — the declared confidence;
  *   - h_t.t - h_{t-1}.t — time to reach the decision (clipped/normalized);
  *   - pi_t — how many training matchers kept h_t.e in their final matrix
  *     (normalized by the training population size).
  * `sequences` builds them for a population in Spark; `sequence` builds one
  * entity's on the driver. Both use `step`.
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
    val joined = decisions
      .join(consensus, Seq("aIdx", "bIdx"), "left")
      .withColumn("consensus", coalesce(col("consensus"), lit(0L)))
      .groupBy("matcherId")
      .agg(collect_list(struct(col("seq"), col("conf"), col("ts"), col("consensus")))
        .as("steps"))
      .collect()

    joined.map { r =>
      val id = r.getAs[Long]("matcherId")
      val steps = r.getAs[scala.collection.Seq[Row]]("steps").toSeq
        .map(s => (s.getAs[Int]("seq"), s.getAs[Double]("conf"),
          s.getAs[Double]("ts"), s.getAs[Long]("consensus")))
        .sortBy(_._1)
      val feats = steps.zipWithIndex.map { case ((_, conf, ts, cons), i) =>
        step(conf, if (i == 0) 0.0 else ts - steps(i - 1)._3, cons, nTrainMatchers)
      }
      id -> feats.toIndexedSeq
    }.toMap
  }

  /** One entity's LSTM input sequence on the driver, in `seq` order.
    * `consensus` holds the pi counts per (aIdx, bIdx); absent pairs count 0.
    */
  def sequence(history: Seq[Decision], consensus: Map[(Int, Int), Int],
               nTrainMatchers: Int): IndexedSeq[Array[Double]] = {
    val h = history.sortBy(_.seq).toIndexedSeq
    h.indices.map { i =>
      val d = h(i)
      step(d.conf, if (i == 0) 0.0 else d.ts - h(i - 1).ts,
        consensus.getOrElse((d.aIdx, d.bIdx), 0).toLong, nTrainMatchers)
    }
  }

  /** One step's features: confidence, the clipped and normalized gap to
    * the previous decision, and pi normalized by the training population.
    */
  def step(conf: Double, gap: Double, consensus: Long, nTrainMatchers: Int): Array[Double] =
    Array(
      conf,
      math.min(gap, GapClipSeconds) / GapClipSeconds,
      math.min(1.0, consensus.toDouble / math.max(1, nTrainMatchers)),
    )
}
