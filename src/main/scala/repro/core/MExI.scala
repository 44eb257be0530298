package repro.core

import org.apache.spark.sql.SparkSession
import repro.Par
import repro.ml.{Metrics, ModelSelection, Standardizer}
import repro.nn.{Cnn, Lstm}

/** The MExI learning framework (Section III): feature extraction with
  * sub-matcher augmentation, late-fusion neural features, per-label
  * classifier selection, and the accuracy evaluation of Section IV-B3.
  */
object MExI {

  /** Window-size recipes of the paper's three variants (Section IV-B1):
    * MExI_0 (no augmentation), MExI_50 (windows of 50 decisions) and
    * MExI_70 (windows of 30, 40, ..., 70 decisions).
    */
  val VariantNone: Seq[Int] = Seq.empty
  val Variant50: Seq[Int] = Seq(50)
  val Variant70: Seq[Int] = Seq(30, 40, 50, 60, 70)

  /** One sub-matcher: `size` consecutive decisions of `matcherId` starting
    * at decision index `start`, exposed under the synthetic `entityId`.
    */
  final case class WindowSpec(entityId: Long, matcherId: Long, start: Int, size: Int)

  /** Accuracy row of tables II/III. */
  final case class Accuracies(aP: Double, aR: Double, aRes: Double,
                              aCal: Double, aML: Double) {
    def toSeq: Seq[Double] = Seq(aP, aR, aRes, aCal, aML)
  }

  /** Everything `fit` needs: feature rows with labels for the training
    * and test matchers, plus the trained networks: the CNNs so callers can
    * share them across variants of the same fold, and the per-label LSTMs.
    * `nLstmTrainSeqs` records how many sequences (matchers + sub-matchers)
    * the LSTMs saw — the knob the augmentation variants turn.
    */
  final case class Prepared(
      names: Vector[String],
      trainIds: Vector[Long],
      testIds: Vector[Long],
      features: FeatureTable,
      trainLabels: Map[Long, Array[Boolean]],
      testLabels: Map[Long, Array[Boolean]],
      thresholds: Thresholds,
      lstms: Array[Lstm],
      cnns: Map[(String, Int), Cnn],
      nLstmTrainSeqs: Int,
  )

  /** A fitted MExI: per-label chosen classifier (with every zoo member's
    * CV accuracy) over standardized features, with its test predictions
    * and accuracies.
    */
  final case class FitResult(
      predictions: Map[Long, Array[Boolean]],
      accuracies: Accuracies,
      models: Array[ModelSelection.Selection],
      standardizer: Standardizer,
      names: Vector[String],
  )

  /** Sub-matcher windows for the given sizes (stride = 3 decisions, full
    * windows only). Matchers shorter than a size contribute no window of
    * that size — they still participate as full matchers.
    */
  val WindowStride = 3

  def windows(histories: Map[Long, Vector[Decision]], matcherIds: Seq[Long],
              sizes: Seq[Int], idBase: Long = 1000000L): Vector[WindowSpec] = {
    val out = Vector.newBuilder[WindowSpec]
    var next = idBase
    for (m <- matcherIds; size <- sizes) {
      val n = histories.get(m).map(_.length).getOrElse(0)
      var start = 0
      while (start + size <= n) {
        out += WindowSpec(next, m, start, size)
        next += 1
        start += WindowStride
      }
    }
    out.result()
  }

  /** A sub-matcher's history: its window of the parent's decisions under
    * the entity id. Decision `seq` restarts at 0 inside the window;
    * timestamps stay absolute (features only use gaps and spans).
    */
  def sliceDecisions(spec: WindowSpec, histories: Map[Long, Vector[Decision]]): Vector[Decision] =
    histories(spec.matcherId).slice(spec.start, spec.start + spec.size).zipWithIndex.map {
      case (d, i) => d.copy(matcherId = spec.entityId, seq = i)
    }

  /** Builds the full training/testing feature tables and labels for one
    * experiment split. Beyond the study caches it submits no Spark job:
    * consensus, sub-matcher labels and LSTM sequences are built on the
    * driver from `historyByMatcher` (`spark` is unused; see DESIGN.md §4).
    *
    * @param trainH      study providing the training matchers
    * @param testH       study providing the test matchers (same handle for
    *                    the 5-fold PO experiment; the OAEI handle for IIb)
    * @param windowSizes sub-matcher recipe (VariantNone/50/70)
    * @param sharedCnns  CNNs trained earlier on the same fold, if any —
    *                    they only depend on (trainIds, labels), not on the
    *                    augmentation variant
    */
  def prepare(spark: SparkSession,
              trainH: StudyHandle, trainIds: Vector[Long],
              testH: StudyHandle, testIds: Vector[Long],
              windowSizes: Seq[Int],
              cfg: NeuralFeatures.Config = NeuralFeatures.Config(),
              sharedCnns: Option[Map[(String, Int), Cnn]] = None,
              seed: Long = 1234L): Prepared = {
    // Measures, thresholds (train population only), labels.
    val trainMeasures = trainIds.map(trainH.measures)
    val thresholds = Thresholds.fromTrain(trainMeasures)
    val trainMatcherLabels = Measures.characterize(trainMeasures, thresholds)
    val testLabels = Measures.characterize(testIds.map(testH.measures), thresholds)

    def histories(h: StudyHandle, ids: Vector[Long]): Vector[(Long, Vector[Decision])] =
      ids.flatMap(id => h.historyByMatcher.get(id).map(id -> _))
    val trainHists = histories(trainH, trainIds)

    // Sub-matcher entities: per the paper, the augmentation windows exist
    // "to ensure sufficient data for a deep network" and are used only
    // during training — they feed the LSTMs, not the final classifier.
    val specs = windows(trainH.historyByMatcher, trainIds, windowSizes)
    val subHists = specs.map(s => s.entityId -> sliceDecisions(s, trainH.historyByMatcher))

    // Labels of sub-matchers come from their own sub-history against the
    // train thresholds (the measures are defined on any history).
    val reference = trainH.study.task.reference.map(r => (r.aIdx, r.bIdx)).toSet
    val subLabels = Measures.characterize(subHists.map { case (id, h) =>
      Measures.ofHistory(id, h, reference, trainH.study.task.reference.size)
    }, thresholds)

    // Base features of the train/test matchers from the study caches.
    val base: FeatureTable = FeatureTable(trainH.baseFeatures.names,
      trainH.baseFeatures.rows.view.filterKeys(trainIds.toSet).toMap ++
        testH.baseFeatures.rows.view.filterKeys(testIds.toSet).toMap)

    // Sequences for the LSTMs: train matchers + sub-matchers with the
    // train-fold consensus (Section III-B). Consensus is unsupervised (it
    // never touches the reference match), so test matchers on a *different*
    // task use the agreement within their own population — feeding the
    // PO-trained LSTM a pi channel on the same scale instead of all-zeros.
    val consensus = MatrixOps.consensusOf(trainHists.map(_._2))
    val nTrain = trainIds.size
    def sequencesOf(hs: Vector[(Long, Vector[Decision])], cons: Map[(Int, Int), Int], n: Int) =
      hs.map { case (id, h) => id -> SeqFeatures.sequence(h, cons, n) }.toMap
    val seqTrain = sequencesOf(trainHists ++ subHists, consensus, nTrain)
    val testHists = histories(testH, testIds)
    val seqTest =
      if (testH eq trainH) sequencesOf(testHists, consensus, nTrain)
      else sequencesOf(testHists, MatrixOps.consensusOf(testHists.map(_._2)), testIds.size)
    val seqs = seqTrain ++ seqTest

    // Neural models: LSTMs on matchers + windows; CNNs on training
    // matchers only (shared across variants of the same fold).
    val lstmTrainIds = trainIds ++ specs.map(_.entityId)
    val lstmLabels = trainMatcherLabels ++ subLabels
    val lstms = NeuralFeatures.trainLstms(seqTrain, lstmLabels, lstmTrainIds, cfg, seed)
    val cnns = sharedCnns.getOrElse(
      NeuralFeatures.trainCnns(trainH.heatMaps, trainMatcherLabels, trainIds, cfg, seed))

    // The study caches are read here, not in the tasks below: a first
    // read may run Spark, and no Spark call runs inside a task.
    val (trainMaps, testMaps) = (trainH.heatMaps, testH.heatMaps)
    def mapsOf(id: Long) = if (trainIds.contains(id)) trainMaps else testMaps

    val allIds = trainIds ++ testIds
    val neural = FeatureTable(
      NeuralFeatures.seqNames ++ NeuralFeatures.spaNames,
      Par.map(allIds) { id =>
        id -> (NeuralFeatures.seqVector(lstms, seqs.getOrElse(id, IndexedSeq.empty)) ++
          NeuralFeatures.spaVector(cnns, mapsOf(id), id))
      }.toMap)

    Prepared(base.names ++ neural.names, trainIds, testIds,
      base ++ neural, trainMatcherLabels, testLabels, thresholds, lstms, cnns,
      nLstmTrainSeqs = lstmTrainIds.size)
  }

  /** Trains the per-label binary-relevance classifiers over the selected
    * feature groups, one task per label, and evaluates on the test matchers.
    */
  def fit(p: Prepared, groups: Set[String] = FeatureTable.AllGroups,
          seed: Long = 99L): FitResult = {
    val table = p.features.select(groups)
    val std = Standardizer.fit(p.trainIds.map(table.vector))
    val trainX = p.trainIds.map(id => std.transform(table.vector(id))).toIndexedSeq
    val testX = p.testIds.map(id => std.transform(table.vector(id))).toIndexedSeq

    val models = Par.map(0 until Labels.Count) { l =>
      val y = p.trainIds.map(id => p.trainLabels(id)(l)).toIndexedSeq
      ModelSelection.selectAndTrain(trainX, y, seed = seed + l)
    }.toArray
    val preds = p.testIds.zipWithIndex.map { case (id, i) =>
      id -> models.map(_.model.predict(testX(i)))
    }.toMap
    FitResult(preds, evaluate(preds, p.testLabels), models, std, table.names)
  }

  /** Accuracies of a prediction set against ground-truth labels. */
  def evaluate(pred: Map[Long, Array[Boolean]],
               truth: Map[Long, Array[Boolean]]): Accuracies = {
    val ids = truth.keys.toVector.sorted
    val t = ids.map(truth)
    val q = ids.map(pred)
    Accuracies(
      Metrics.singleAccuracy(t, q, Labels.Precise),
      Metrics.singleAccuracy(t, q, Labels.Thorough),
      Metrics.singleAccuracy(t, q, Labels.Correlated),
      Metrics.singleAccuracy(t, q, Labels.Calibrated),
      Metrics.multiLabelAccuracy(t, q),
    )
  }
}
