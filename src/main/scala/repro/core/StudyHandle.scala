package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ml.Stats
import repro.synth.StudyData

/** Cached per-study Spark state shared by every fold of an experiment:
  * the decision/mouse/reference DataFrames, per-matcher measures, base
  * features and heat maps — none of which depend on the train/test split.
  *
  * The per-matcher outputs come from one Spark pass that groups decisions
  * and mouse events by matcher and runs the kernels on each group
  * (DESIGN.md §4). The study is validated first (`StudyData.validate`).
  */
final class StudyHandle(val spark: SparkSession, val study: StudyData) {
  StudyData.validate(study)

  val decisions: DataFrame = study.decisionsDf(spark).cache()
  val mouse: DataFrame = study.mouseDf(spark).cache()
  val reference: DataFrame = study.referenceDf(spark).cache()
  val warmup: DataFrame = study.warmupDf(spark).cache()

  val matcherIds: Vector[Long] = study.traits.map(_.matcherId)

  /** Histories grouped per matcher (decision order), for window slicing. */
  lazy val historyByMatcher: Map[Long, Vector[Decision]] =
    study.decisions.groupBy(_.matcherId).view.mapValues(_.sortBy(_.seq)).toMap

  lazy val mouseByMatcher: Map[Long, Vector[MouseEvent]] =
    study.mouse.groupBy(_.matcherId).view.mapValues(_.sortBy(_.ts)).toMap

  /** The population ETL: one row per matcher with decisions or mouse events. */
  private lazy val rows: Vector[StudyHandle.MatcherRow] = {
    import spark.implicits._
    val task = study.task
    val (ref, refSize) = (StudyHandle.referenceSet(task.reference), task.reference.size.toLong)
    val (nA, nB, screenW, screenH) = (task.nA, task.nB, task.screenW, task.screenH)
    decisions.as[Decision].groupByKey(_.matcherId)
      .cogroup(mouse.as[MouseEvent].groupByKey(_.matcherId)) { (id, ds, ms) =>
        val (h, es) = (ds.toVector, ms.toVector)
        Iterator(StudyHandle.MatcherRow(
          id,
          Option.when(h.nonEmpty)(Measures.ofHistory(id, h, ref, refSize)),
          Predictors.fromEntries(MatrixOps.sigmaOf(h).map(d => (d.aIdx, d.bIdx, d.conf)), nA, nB) ++
            BehavioralFeatures.ofHistory(h) ++ MouseFeatures.ofEvents(es),
          HeatMap.ofEvents(es, screenW, screenH),
          Option.when(h.nonEmpty)(Stats.mean(h.sortBy(_.seq).map(_.conf)))))
      }.collect().toVector
  }

  /** Main-task measures per matcher (Section II-B). */
  lazy val measures: Map[Long, MatcherMeasures] =
    rows.flatMap(r => r.measures.map(r.matcherId -> _)).toMap

  /** Warm-up measures per matcher, for the Qual. Test / Self-Assess
    * baselines (Section IV-B2).
    */
  lazy val warmupMeasures: Map[Long, MatcherMeasures] = {
    import spark.implicits._
    val ref = StudyHandle.referenceSet(study.warmupTask.reference)
    val refSize = study.warmupTask.reference.size.toLong
    warmup.as[Decision].groupByKey(_.matcherId)
      .mapGroups((id, h) => Measures.ofHistory(id, h.toVector, ref, refSize))
      .collect().map(m => m.matcherId -> m).toMap
  }

  /** Phi_LRSM + Phi_Beh + Phi_Mou for the full matchers of this study; a
    * matcher without decisions (or without mouse events) gets zeros there.
    */
  lazy val baseFeatures: FeatureTable =
    FeatureTable(Predictors.names ++ BehavioralFeatures.names ++ MouseFeatures.names,
      rows.map(r => r.matcherId -> r.features).toMap)

  /** Down-sampled heat maps per (matcher, event type). */
  lazy val heatMaps: Map[(Long, String), Array[Array[Double]]] =
    rows.flatMap(r => r.heatMaps.map { case (kind, g) => (r.matcherId, kind) -> g }).toMap

  /** Mean reported confidence per matcher (the Conf baseline's score). */
  lazy val meanConf: Map[Long, Double] =
    rows.flatMap(r => r.meanConf.map(r.matcherId -> _)).toMap
}

object StudyHandle {

  /** Everything the population ETL derives from one matcher's streams. */
  final case class MatcherRow(
      matcherId: Long,
      measures: Option[MatcherMeasures],
      features: Array[Double],
      heatMaps: Map[String, Array[Array[Double]]],
      meanConf: Option[Double],
  )

  private def referenceSet(reference: Vector[RefPair]): Set[(Int, Int)] =
    reference.map(r => (r.aIdx, r.bIdx)).toSet
}
