package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.synth.MatcherSim

/** What a workload's item hands back: its output digest, the invariants
  * it broke, and work counts. Built after the item's timed region.
  */
final case class ItemCheck(digest: String, violations: Vector[String], counts: Map[String, Double])

/** Shared state of one run: the session, the tracer, the workload seed and
  * the sizes the program is run at.
  */
final case class Ctx(spark: SparkSession, tracer: Tracer, seed: Long,
                     cfg: NeuralFeatures.Config, nMatchers: Int) {
  def span[T](name: String)(body: => T): T = tracer.span(name)(body)
}

/** One benchmark workload. `setup` builds the state the items use, once
  * per run. `item(i)` is the timed unit of work and returns a thunk that
  * checks its output outside the timed region.
  */
trait Workload {
  /** Seconds one item takes on 4 cores; sizes a run as ceil(seconds / this). */
  def nominalItemSeconds: Double
  /** The seeds the workload derives from `--seed`, for the environment record. */
  def seeds: Map[String, Long]
  def setup(): Unit
  /** Work after the setup, part of `setup_s` but not of the timed items,
    * that leaves no code path of an item cold (JIT, Spark plan compilation).
    */
  def warmUp(): Unit = ()
  def item(i: Int): () => ItemCheck
  def release(): Unit
}

object Workloads {
  /** Items cycle over this many folds / populations / seeds, so a run's
    * inputs, and the reference digests, are a function of (seed, i mod 5).
    */
  val Cycle = 5

  val Names: Vector[String] = Vector("train_fold", "etl_population")

  def apply(name: String, ctx: Ctx): Workload = name match {
    case "train_fold" => new TrainFold(ctx)
    case "etl_population" => new EtlPopulation(ctx)
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** Simulates the PO-scale population of `seed` and forces every lazy
    * cache of its `StudyHandle`: the setup both workloads share.
    */
  def population(ctx: Ctx, seed: Long): StudyHandle = {
    val study = ctx.span("synth.poStudy")(MatcherSim.poStudy(ctx.nMatchers, seed))
    ctx.span("core.StudyHandle.caches") {
      val h = new StudyHandle(ctx.spark, study)
      h.historyByMatcher; h.mouseByMatcher
      h.measures; h.warmupMeasures; h.baseFeatures; h.heatMaps; h.meanConf
      h
    }
  }

  def unpersist(h: StudyHandle): Unit = {
    h.decisions.unpersist(); h.mouse.unpersist(); h.reference.unpersist(); h.warmup.unpersist()
  }

  // --- checks shared by the workloads ---

  def finite(x: Double): Boolean = !x.isNaN && !x.isInfinite
  def unit(x: Double): Boolean = finite(x) && x >= 0.0 && x <= 1.0

  /** Matchers with measures over matchers simulated; anything below 1 is
    * a matcher the measures dropped.
    */
  def measuredRatio(h: StudyHandle): Double =
    h.measures.size.toDouble / h.matcherIds.size

  def rowViolations(rows: Vector[Experiments.TableRow], expected: Int): Vector[String] = {
    val n = if (rows.size == expected) Vector.empty else Vector(s"${rows.size} rows, expected $expected")
    n ++ rows.flatMap(r => r.acc.toSeq.filterNot(unit).map(a => s"${r.method}: accuracy $a outside [0, 1]"))
  }

  def featureViolations(label: String, t: FeatureTable, ids: Seq[Long]): Vector[String] =
    ids.toVector.flatMap { id =>
      t.rows.get(id) match {
        case None => Vector(s"$label: no feature row for matcher $id")
        case Some(v) if !v.forall(finite) => Vector(s"$label: non-finite feature for matcher $id")
        case Some(_) => Vector.empty
      }
    }

  def populationCounts(h: StudyHandle): Map[String, Double] = Map(
    "decisions" -> h.study.decisions.size.toDouble,
    "mouse_events" -> h.study.mouse.size.toDouble,
    "measured_ratio" -> measuredRatio(h),
  )

  def ratioViolation(h: StudyHandle): Vector[String] = {
    val r = measuredRatio(h)
    if (r == 1.0) Vector.empty
    else Vector(s"measured_ratio $r: ${h.matcherIds.size - h.measures.size} matcher(s) without measures")
  }
}

/** One Table IIa fold per item: prepare MExI_0/50/70 (CNNs shared), fit
  * the three, the seven baselines, then the fold's Table III ablation and
  * Table IV importances over MExI_50. Item i runs fold i mod 5 of the
  * paper's split of the paper's PO population; the workload seed sets the
  * learners' seeds (network initialisation and batch order, classifier CV
  * shuffles, baseline draws) as `Experiments.tableIIa`, `tableIII` and
  * `tableIV` derive them from their own seeds, so seed 42 runs exactly the
  * paper tables' folds.
  *
  * The population and split are not seeded, and the reason is measured: a
  * fold's LSTM windows and Spark work grow with its train matchers'
  * history lengths, and fold 0's LSTM steps varied by about 10% between
  * seeded splits and by over 30% between seeded populations. Item time
  * follows the step count, so a seeded split would make the run-to-run
  * spread mostly input.
  */
final class TrainFold(ctx: Ctx) extends Workload {
  import TrainFold._
  import Workloads._
  val nominalItemSeconds = 20.0

  /** Learner seed of fold f: `tableIIa`'s `seed + 100 f` at split seed 77. */
  def foldSeed(f: Int): Long = ctx.seed + 35L + 100L * f
  /** Baseline seed of fold f: `tableIIa`'s `seed + 1000 + f`. */
  def baselineSeed(f: Int): Long = ctx.seed + 1035L + f
  /** `tableIII`'s and `tableIV`'s default seeds, 277 and 377, at seed 42. */
  val tableIIISeed: Long = ctx.seed + 235L
  val tableIVSeed: Long = ctx.seed + 335L

  def seeds: Map[String, Long] = Map("population" -> PopulationSeed, "fold_split" -> SplitSeed,
    "fold_0" -> foldSeed(0), "baselines_0" -> baselineSeed(0),
    "table_iii" -> tableIIISeed, "table_iv" -> tableIVSeed)

  private var po: StudyHandle = _
  private var splits: Vector[(Vector[Long], Vector[Long])] = _

  def setup(): Unit = {
    po = population(ctx, PopulationSeed)
    splits = Experiments.foldSplits(po.matcherIds, Cycle, SplitSeed)
  }

  def release(): Unit = if (po != null) { unpersist(po); po = null }

  /** A first fold runs JIT and Spark plan compilation inside the timed
    * region: a warm-up on a 40/10-matcher subset of a fold still left the
    * first timed fold about 20% slower than the folds after it, and that
    * share was the noisiest. So the warm-up runs every stage of an item on
    * the whole last fold of the cycle, untimed, except MExI_70: its
    * `prepare` takes the code paths of MExI_50 on more windows. The timed
    * items start at fold 0.
    */
  override def warmUp(): Unit = fold(Cycle - 1, withV70 = false)

  def item(i: Int): () => ItemCheck = {
    val out = fold(i % Cycle, withV70 = true)
    () => TrainFold.check(po, out, ctx.cfg)
  }

  /** Fold f of the split; without MExI_70, MExI_50 stands in for it. */
  private def fold(f: Int, withV70: Boolean): Outputs = {
    val (train, test) = splits(f)
    val seed = foldSeed(f)
    def prep(span: String, sizes: Seq[Int], cnns: Option[Map[(String, Int), repro.nn.Cnn]]) =
      ctx.span(span)(MExI.prepare(ctx.spark, po, train, po, test, sizes, ctx.cfg, cnns, seed))
    val p0 = prep("core.MExI.prepare.v0", MExI.VariantNone, None)
    val p50 = prep("core.MExI.prepare.v50", MExI.Variant50, Some(p0.cnns))
    val p70 = if (withV70) prep("core.MExI.prepare.v70", MExI.Variant70, Some(p0.cnns)) else p50
    val (f0, f50, f70) = ctx.span("core.MExI.fit") {
      val (f0, f50) = (MExI.fit(p0, seed = seed), MExI.fit(p50, seed = seed))
      (f0, f50, if (withV70) MExI.fit(p70, seed = seed) else f50)
    }
    val a = Experiments.FoldArtifacts(train, test, p0, p50, p70, f0, f50, f70)
    val rows = ctx.span("core.Experiments.baselineRows")(
      Experiments.baselineRows(po, po, a, baselineSeed(f)))
    val t3 = ctx.span("core.Experiments.tableIII")(Experiments.tableIII(Vector(a), tableIIISeed))
    val t4 = ctx.span("core.Experiments.tableIV")(Experiments.tableIV(Vector(a), tableIVSeed))
    Outputs(a, rows, t3, t4)
  }
}

object TrainFold {
  import Workloads._

  /** The paper tables' PO population seed and fold split seed. */
  val PopulationSeed = 42L
  val SplitSeed = 77L

  final case class Outputs(
      fold: Experiments.FoldArtifacts,
      baselines: Vector[Experiments.TableRow],
      tableIII: Vector[Experiments.TableRow],
      tableIV: Map[(String, String), Vector[String]]) {
    def tableIIa: Vector[Experiments.TableRow] =
      baselines ++ Vector(
        Experiments.TableRow("MExI_0", fold.fitNone.accuracies),
        Experiments.TableRow("MExI_50", fold.fit50.accuracies),
        Experiments.TableRow("MExI_70", fold.fit70.accuracies))
  }

  /** The fold's formatted table rows: IIa, III and IV. */
  def canonical(o: Outputs): String =
    Experiments.formatAccuracyTable("Table IIa fold", o.tableIIa) +
      Experiments.formatAccuracyTable("Table III fold", o.tableIII) +
      o.tableIV.toVector.sortBy(_._1).map { case ((set, label), top) =>
        s"$set $label ${top.mkString(",")}"
      }.mkString("== Table IV fold ==\n", "\n", "\n")

  def check(po: StudyHandle, o: Outputs, cfg: NeuralFeatures.Config): ItemCheck = {
    val a = o.fold
    val ids = a.trainIds ++ a.testIds
    val names = a.p50.features.names.toSet
    val violations = rowViolations(o.tableIIa, 10) ++ rowViolations(o.tableIII, 11) ++
      (if (o.tableIV.size == 20) Vector.empty else Vector(s"Table IV has ${o.tableIV.size} cells, expected 20")) ++
      o.tableIV.toVector.collect { case (k, top) if top.isEmpty || top.size > 2 || !top.forall(names) =>
        s"Table IV cell $k: ${top.mkString(",")}" } ++
      Vector("v0" -> a.pNone, "v50" -> a.p50, "v70" -> a.p70)
        .flatMap { case (v, p) => featureViolations(s"prepare.$v", p.features, ids) } ++
      ratioViolation(po)
    val windowSteps = MExI.windows(po.historyByMatcher, a.trainIds, MExI.Variant70).map(_.size).sum
    val trainSteps = a.trainIds.map(id => po.historyByMatcher.get(id).map(_.size).getOrElse(0)).sum
    ItemCheck(Digest.sha256(canonical(o)), violations, populationCounts(po) ++ Map(
      "lstm_seqs.v0" -> a.pNone.nLstmTrainSeqs.toDouble,
      "lstm_seqs.v50" -> a.p50.nLstmTrainSeqs.toDouble,
      "lstm_seqs.v70" -> a.p70.nLstmTrainSeqs.toDouble,
      "lstm_steps.v70" -> (windowSteps + trainSteps).toDouble * cfg.lstmEpochs * Labels.Count,
    ))
  }
}

/** One fresh PO-scale population per item, through every per-matcher
  * Spark stage and the expert-filter fusion; no model is trained.
  */
final class EtlPopulation(ctx: Ctx) extends Workload {
  import Workloads._
  val nominalItemSeconds = 9.0
  val VoteFrac = 0.4

  private var warm: StudyHandle = _

  /** Population seed of item i: distinct from the workload seed's own
    * population (the setup's) and from every other item in the cycle.
    */
  def itemSeed(i: Int): Long = ctx.seed + 10007L * (1 + i % Cycle)

  def seeds: Map[String, Long] = Map("population" -> ctx.seed, "item_0_population" -> itemSeed(0))

  def setup(): Unit = warm = population(ctx, ctx.seed)

  /** Setup already runs every stage up to `meanConf`; this runs the rest. */
  override def warmUp(): Unit = { sequences(warm); fuse(warm, warm.measures) }

  def release(): Unit = if (warm != null) { unpersist(warm); warm = null }

  def sequences(h: StudyHandle): Map[Long, IndexedSeq[Array[Double]]] =
    SeqFeatures.sequences(h.decisions, MatrixOps.consensus(h.decisions), h.matcherIds.size)

  /** Fused match of the whole population and of its all-four experts
    * under thresholds from the population's own measures.
    */
  def fuse(h: StudyHandle, measures: Map[Long, MatcherMeasures]): Vector[EtlPopulation.Fused] = {
    val all = h.matcherIds.toSet
    val ms = h.matcherIds.flatMap(measures.get)
    val labels = Measures.characterize(ms, Thresholds.fromTrain(ms))
    val experts = labels.collect { case (id, l) if l.forall(identity) => id }.toSet
    // An empty expert set falls back to the population, as
    // Experiments.utilization does.
    Vector("no_filter" -> all, "experts" -> (if (experts.isEmpty) all else experts)).map {
      case (sel, ids) =>
        val df = ExpertFilter.fusedMatch(h.decisions, ids, VoteFrac)
        val (p, r) = ExpertFilter.fusedQuality(df, h.reference, h.study.task.reference.size)
        val pairs = df.collect().map(row => (row.getInt(0), row.getInt(1))).sorted.toVector
        EtlPopulation.Fused(sel, ids.size, p, r, pairs)
    }
  }

  def item(i: Int): () => ItemCheck = {
    val study = ctx.span("synth.poStudy")(MatcherSim.poStudy(ctx.nMatchers, itemSeed(i)))
    val h = ctx.span("core.StudyHandle.new")(new StudyHandle(ctx.spark, study))
    val measures = ctx.span("core.Measures.compute")(h.measures)
    val warmup = ctx.span("core.Measures.warmup")(h.warmupMeasures)
    val base = ctx.span("core.StudyHandle.baseFeatures")(h.baseFeatures)
    val maps = ctx.span("core.HeatMap.build")(h.heatMaps)
    val conf = ctx.span("core.StudyHandle.meanConf")(h.meanConf)
    val seqs = ctx.span("core.SeqFeatures.sequences")(sequences(h))
    val fused = ctx.span("core.ExpertFilter.fuse")(fuse(h, measures))
    ctx.span("core.StudyHandle.unpersist")(unpersist(h))
    () => EtlPopulation.check(h, EtlPopulation.Outputs(measures, warmup, base, maps, conf, seqs, fused))
  }
}

object EtlPopulation {
  import Workloads._

  final case class Fused(selection: String, n: Int, p: Double, r: Double, pairs: Vector[(Int, Int)])

  final case class Outputs(
      measures: Map[Long, MatcherMeasures],
      warmup: Map[Long, MatcherMeasures],
      base: FeatureTable,
      maps: Map[(Long, String), Array[Array[Double]]],
      meanConf: Map[Long, Double],
      seqs: Map[Long, IndexedSeq[Array[Double]]],
      fused: Vector[Fused])

  /** The outputs as text, every double rounded as `repro.Oracle` rounds. */
  def canonical(o: Outputs): String = {
    val sb = new StringBuilder
    def num(x: Double): Unit = sb.append(Digest.fmt(x)).append(' ')
    def measures(tag: String, ms: Map[Long, MatcherMeasures]): Unit =
      ms.toVector.sortBy(_._1).foreach { case (id, m) =>
        sb.append(tag).append(' ').append(id).append(' ')
        Seq(m.precision, m.recall, m.resolution, m.resolutionP, m.calibration).foreach(num)
        sb.append('\n')
      }
    measures("measures", o.measures)
    measures("warmup", o.warmup)
    sb.append("features ").append(o.base.names.mkString(",")).append('\n')
    o.base.rows.toVector.sortBy(_._1).foreach { case (id, v) =>
      sb.append(id).append(' '); v.foreach(num); sb.append('\n')
    }
    o.maps.toVector.sortBy(_._1).foreach { case ((id, kind), g) =>
      sb.append("heatmap ").append(id).append(' ').append(kind).append(' ')
      g.foreach(_.foreach(num)); sb.append('\n')
    }
    o.meanConf.toVector.sortBy(_._1).foreach { case (id, c) =>
      sb.append("conf ").append(id).append(' '); num(c); sb.append('\n')
    }
    o.seqs.toVector.sortBy(_._1).foreach { case (id, s) =>
      sb.append("seq ").append(id).append(' '); s.foreach(_.foreach(num)); sb.append('\n')
    }
    o.fused.foreach { f =>
      sb.append("fused ").append(f.selection).append(' ').append(f.n).append(' ')
      num(f.p); num(f.r)
      f.pairs.foreach { case (a, b) => sb.append(a).append(':').append(b).append(' ') }
      sb.append('\n')
    }
    sb.toString
  }

  def check(h: StudyHandle, o: Outputs): ItemCheck = {
    val n = h.matcherIds.size
    def size(label: String, got: Int): Vector[String] =
      if (got == n) Vector.empty else Vector(s"$label for $got of $n matchers")
    val steps = o.seqs.values.map(_.size).sum
    val violations = ratioViolation(h) ++
      size("warm-up measures", o.warmup.size) ++
      size("base features", o.base.rows.size) ++
      featureViolations("base", o.base, h.matcherIds) ++
      size("sequences", o.seqs.size) ++
      (if (steps == h.study.decisions.size) Vector.empty
       else Vector(s"$steps sequence steps for ${h.study.decisions.size} decisions")) ++
      o.maps.collect { case (k, g) if !g.forall(_.forall(unit)) => s"heat map $k outside [0, 1]" } ++
      o.fused.flatMap(f => Seq(f.p, f.r).filterNot(unit).map(x => s"fused ${f.selection}: $x outside [0, 1]"))
    ItemCheck(Digest.sha256(canonical(o)), violations.toVector, populationCounts(h))
  }
}
