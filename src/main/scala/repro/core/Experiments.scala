package repro.core

import org.apache.spark.sql.SparkSession
import repro.Par
import repro.ml.ModelSelection

/** Orchestration of the paper's evaluation (Section IV): Table IIa/IIb
  * (expert identification and generalizability), Table III (ablation),
  * Table IV (feature importance) and the Section IV-F expert-utilization
  * analysis. Bench suites and spark-submit jobs both call these entry
  * points; EXPERIMENTS.md records paper vs measured numbers.
  *
  * Independent fits (folds, ablation fits, Table IV cells) run as
  * `Par.map` tasks. Each owns its seeds, results are assembled in the
  * sequential order, and sums across tasks stay sequential, so the tables
  * are bit-identical to a one-thread run. No Spark call runs inside a
  * task: the study caches are filled before the folds fork.
  */
object Experiments {

  final case class TableRow(method: String, acc: MExI.Accuracies)

  /** Everything computed once per fold and reused by IIa, III, IV, IV-F. */
  final case class FoldArtifacts(
      trainIds: Vector[Long],
      testIds: Vector[Long],
      pNone: MExI.Prepared,
      p50: MExI.Prepared,
      p70: MExI.Prepared,
      fitNone: MExI.FitResult,
      fit50: MExI.FitResult,
      fit70: MExI.FitResult,
  )

  /** Round-robin k-fold split after a seeded shuffle (the paper randomly
    * splits 106 PO matchers into 5 folds of ~22).
    */
  def foldSplits(ids: Vector[Long], k: Int, seed: Long)
      : Vector[(Vector[Long], Vector[Long])] = {
    val rnd = new java.util.Random(seed)
    val shuffled = scala.util.Random.javaRandomToRandom(rnd).shuffle(ids)
    (0 until k).toVector.map { f =>
      val test = shuffled.zipWithIndex.collect { case (id, i) if i % k == f => id }
      val train = shuffled.zipWithIndex.collect { case (id, i) if i % k != f => id }
      (train, test)
    }
  }

  /** Prepares and fits the three MExI variants for one fold, sharing the
    * fold's CNNs (they do not depend on the augmentation variant).
    */
  def computeFold(spark: SparkSession, trainH: StudyHandle, testH: StudyHandle,
                  trainIds: Vector[Long], testIds: Vector[Long],
                  cfg: NeuralFeatures.Config, seed: Long): FoldArtifacts = {
    val pNone = MExI.prepare(spark, trainH, trainIds, testH, testIds,
      MExI.VariantNone, cfg, sharedCnns = None, seed = seed)
    val p50 = MExI.prepare(spark, trainH, trainIds, testH, testIds,
      MExI.Variant50, cfg, sharedCnns = Some(pNone.cnns), seed = seed)
    val p70 = MExI.prepare(spark, trainH, trainIds, testH, testIds,
      MExI.Variant70, cfg, sharedCnns = Some(pNone.cnns), seed = seed)
    FoldArtifacts(trainIds, testIds, pNone, p50, p70,
      MExI.fit(pNone, seed = seed), MExI.fit(p50, seed = seed), MExI.fit(p70, seed = seed))
  }

  /** Accuracy rows for the seven baselines on one fold. LRSM and BEH are
    * the learning-based baselines: the same classifier stack restricted to
    * matching predictors, resp. behavioral (history + mouse) aggregates;
    * their two fits run in parallel.
    */
  def baselineRows(trainH: StudyHandle, testH: StudyHandle, a: FoldArtifacts,
                   seed: Long): Vector[TableRow] = {
    val p50 = a.p50
    val truth = p50.testLabels
    def eval(pred: Map[Long, Array[Boolean]]) = MExI.evaluate(pred, truth)
    val trainMatcherLabels = a.trainIds.map(p50.trainLabels)
    val Vector(lrsm, beh) =
      Par.map(Vector(Set("lrsm"), Set("beh", "mou")))(g => MExI.fit(p50, g, seed).accuracies)
    Vector(
      TableRow("Rand", eval(Baselines.rand(a.testIds, seed))),
      TableRow("Rand_Freq", eval(Baselines.randFreq(trainMatcherLabels, a.testIds, seed + 1))),
      TableRow("Conf", eval(Baselines.conf(
        trainH.meanConf ++ testH.meanConf, a.trainIds, a.testIds))),
      TableRow("Qual. Test", eval(Baselines.qualTest(
        testH.warmupMeasures, a.testIds, p50.thresholds))),
      TableRow("Self-Assess", eval(Baselines.selfAssess(
        testH.warmupMeasures, a.testIds))),
      TableRow("LRSM", lrsm),
      TableRow("BEH", beh),
    )
  }

  private def meanRows(perFold: Seq[Vector[TableRow]]): Vector[TableRow] = {
    val methods = perFold.head.map(_.method)
    methods.map { m =>
      val accs = perFold.map(_.find(_.method == m).get.acc)
      TableRow(m, MExI.Accuracies(
        accs.map(_.aP).sum / accs.size,
        accs.map(_.aR).sum / accs.size,
        accs.map(_.aRes).sum / accs.size,
        accs.map(_.aCal).sum / accs.size,
        accs.map(_.aML).sum / accs.size))
    }.toVector
  }

  /** Table IIa: 5-fold CV over the PO population — average accuracies of
    * the 7 baselines and the 3 MExI variants. Also returns the per-fold
    * artifacts for reuse by tables III/IV and Section IV-F.
    */
  def tableIIa(spark: SparkSession, po: StudyHandle, cfg: NeuralFeatures.Config,
               folds: Int = 5, seed: Long = 77L)
      : (Vector[TableRow], Vector[FoldArtifacts]) = {
    val splits = foldSplits(po.matcherIds, folds, seed)
    po.measures // fills the study caches (Spark) before the folds fork
    val artifacts = Par.map(splits.zipWithIndex) { case ((train, test), i) =>
      computeFold(spark, po, po, train, test, cfg, seed + 100 * i)
    }
    val perFold = artifacts.zipWithIndex.map { case (a, i) =>
      baselineRows(po, po, a, seed + 1000 + i) ++ Vector(
        TableRow("MExI_0", a.fitNone.accuracies),
        TableRow("MExI_50", a.fit50.accuracies),
        TableRow("MExI_70", a.fit70.accuracies))
    }
    (meanRows(perFold), artifacts)
  }

  /** Table IIb: train on all 106 PO matchers, test on the 34 OAEI
    * matchers (generalizability across matching tasks).
    */
  def tableIIb(spark: SparkSession, po: StudyHandle, oaei: StudyHandle,
               cfg: NeuralFeatures.Config, seed: Long = 177L): Vector[TableRow] = {
    val a = computeFold(spark, po, oaei, po.matcherIds, oaei.matcherIds, cfg, seed)
    baselineRows(po, oaei, a, seed) ++ Vector(
      TableRow("MExI_0", a.fitNone.accuracies),
      TableRow("MExI_50", a.fit50.accuracies),
      TableRow("MExI_70", a.fit70.accuracies))
  }

  /** Table III: include/exclude ablation of the five feature sets on
    * MExI_50, averaged over the IIa folds.
    */
  def tableIII(artifacts: Vector[FoldArtifacts], seed: Long = 277L)
      : Vector[TableRow] = {
    val sets = Vector("lrsm", "mou", "beh", "seq", "spa")
    val ablations = sets.map(s => s"include $s" -> Set(s)) ++
      sets.map(s => s"exclude $s" -> (FeatureTable.AllGroups - s))
    val perFold = artifacts.map { a =>
      Vector(TableRow("MExI_50", a.fit50.accuracies)) ++
        Par.map(ablations) { case (method, groups) =>
          TableRow(method, MExI.fit(a.p50, groups, seed).accuracies)
        }
    }
    meanRows(perFold)
  }

  /** Table IV: the two most informative features per feature set and
    * characteristic — permutation importance (our SHAP stand-in) of the
    * per-set models, summed over folds. Each cell is one task; its sum
    * over folds runs in fold order.
    */
  def tableIV(artifacts: Vector[FoldArtifacts], seed: Long = 377L)
      : Map[(String, String), Vector[String]] = {
    val sets = Vector("lrsm", "mou", "beh", "seq", "spa")
    val cells = for (s <- sets; l <- 0 until Labels.Count) yield (s, l)
    val out = Par.map(cells) { case (s, l) =>
      val importance = scala.collection.mutable.Map.empty[String, Double]
      artifacts.foreach { a =>
        val table = a.p50.features.select(Set(s))
        val std = repro.ml.Standardizer.fit(a.p50.trainIds.map(table.vector))
        val xs = a.p50.trainIds.map(id => std.transform(table.vector(id))).toIndexedSeq
        val ys = a.p50.trainIds.map(id => a.p50.trainLabels(id)(l)).toIndexedSeq
        val model = ModelSelection.selectAndTrain(xs, ys, seed = seed + l).model
        val imp = ModelSelection.permutationImportance(model, xs, ys, seed = seed)
        table.names.zip(imp).foreach { case (n, v) =>
          importance(n) = importance.getOrElse(n, 0.0) + v
        }
      }
      val top2 = importance.toVector.sortBy(-_._2).take(2).map(_._1)
      (s, Labels.Names(l)) -> top2
    }
    out.toMap
  }

  /** Section IV-F rows: mean (P, R, Res, |Cal|) of the matchers each
    * selector keeps, over the whole PO population (test-fold predictions
    * of the IIa CV for MExI). Also returns the fused-match quality of the
    * selected set vs the full population. A selector that keeps no
    * matcher gets n = 0 and `fallback`: its measure and fused columns are
    * the full population's (a system would fall back rather than ship an
    * empty match).
    */
  final case class UtilizationRow(method: String, n: Int, p: Double, r: Double,
                                  res: Double, absCal: Double,
                                  fusedP: Double, fusedR: Double,
                                  fallback: Boolean = false)

  def utilization(spark: SparkSession, po: StudyHandle,
                  cvPred: Map[Long, Array[Boolean]],
                  thresholds: Thresholds): Vector[UtilizationRow] = {
    val allIds = po.matcherIds

    val mexiExperts = allIds.filter(id => cvPred(id).forall(identity)).toSet
    val confPred = Baselines.conf(po.meanConf, allIds, allIds)
    val qualPred = Baselines.qualTest(po.warmupMeasures, allIds, thresholds)
    val selfPred = Baselines.selfAssess(po.warmupMeasures, allIds)

    def keep(pred: Map[Long, Array[Boolean]]): Set[Long] =
      allIds.filter(id => pred(id).forall(identity)).toSet

    val selections = Vector(
      "no_filter" -> allIds.toSet,
      "Conf" -> keep(confPred),
      "Qual. Test" -> keep(qualPred),
      "Self-Assess" -> keep(selfPred),
      "MExI" -> mexiExperts,
    )
    selections.map { case (name, selected) =>
      val ids = if (selected.isEmpty) allIds.toSet else selected
      val (p, r, res, cal) = ExpertFilter.measureStats(po.measures, ids)
      val fused = ExpertFilter.fusedMatch(po.decisions, ids, voteFrac = 0.4)
      val (fp, fr) = ExpertFilter.fusedQuality(fused, po.reference,
        po.study.task.reference.size)
      UtilizationRow(name, selected.size, p, r, res, cal, fp, fr, fallback = selected.isEmpty)
    }
  }

  /** Early-identification predictions (Figure 11): refit each fold with the
    * test matchers truncated to their first `k` decisions. Training, the
    * fold's CNNs and the seeds are unchanged, so the LSTMs retrain to the
    * same weights and only the test-side features change.
    */
  def earlyPredictions(spark: SparkSession, po: StudyHandle, truncated: StudyHandle,
                       artifacts: Vector[FoldArtifacts], cfg: NeuralFeatures.Config,
                       seed: Long = 77L): Map[Long, Array[Boolean]] = {
    truncated.measures // fills the study caches (Spark) before the folds fork
    Par.map(artifacts.zipWithIndex) { case (a, i) =>
      val p = MExI.prepare(spark, po, a.trainIds, truncated, a.testIds,
        MExI.Variant50, cfg, sharedCnns = Some(a.pNone.cnns), seed = seed + 100 * i)
      MExI.fit(p, seed = seed + 100 * i).predictions
    }.flatten.toMap
  }

  // --- formatting ---

  def formatAccuracyTable(title: String, rows: Vector[TableRow]): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    sb.append(f"${"Method"}%-12s ${"A_P"}%6s ${"A_R"}%6s ${"A_Res"}%6s ${"A_Cal"}%6s ${"A_ML"}%6s\n")
    rows.foreach { r =>
      sb.append(f"${r.method}%-12s ${r.acc.aP}%6.2f ${r.acc.aR}%6.2f " +
        f"${r.acc.aRes}%6.2f ${r.acc.aCal}%6.2f ${r.acc.aML}%6.2f\n")
    }
    sb.toString
  }

  /** One line per fold and label: the classifier each MExI variant chose
    * and its internal CV accuracy (none for a single-class label's
    * constant model).
    */
  def formatModelChoices(artifacts: Vector[FoldArtifacts]): String = {
    val sb = new StringBuilder
    sb.append("== Classifier per fold and label (internal CV accuracy) ==\n")
    for ((a, i) <- artifacts.zipWithIndex; l <- 0 until Labels.Count) {
      val cells = Vector("MExI_0" -> a.fitNone, "MExI_50" -> a.fit50, "MExI_70" -> a.fit70).map {
        case (variant, fit) =>
          val chosen = fit.models(l)
          val score = chosen.cvScores.toMap.get(chosen.name).fold("")(acc => f" $acc%.2f")
          s"$variant ${chosen.name}$score"
      }
      sb.append(f"fold $i ${Labels.Names(l)}%-3s ${cells.mkString(" | ")}\n")
    }
    sb.toString
  }

  def formatUtilization(title: String, rows: Vector[UtilizationRow]): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    sb.append(f"${"Selector"}%-12s ${"n"}%4s ${"P"}%6s ${"R"}%6s ${"Res"}%6s " +
      f"${"|Cal|"}%6s ${"fusedP"}%7s ${"fusedR"}%7s\n")
    rows.foreach { r =>
      val n = if (r.fallback) s"${r.n}*" else r.n.toString
      sb.append(f"${r.method}%-12s $n%4s ${r.p}%6.2f ${r.r}%6.2f ${r.res}%6.2f " +
        f"${r.absCal}%6.2f ${r.fusedP}%7.2f ${r.fusedR}%7.2f\n")
    }
    if (rows.exists(_.fallback))
      sb.append("* selected no matcher: its measure and fused columns are the full population's\n")
    sb.toString
  }
}
