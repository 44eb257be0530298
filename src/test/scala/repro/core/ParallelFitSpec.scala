package repro.core

import java.util.concurrent.{Callable, ForkJoinPool, TimeUnit}
import repro.{SparkJobCounter, SparkSpec}
import repro.synth.MatcherSim

/** One fold's fits (`computeFold`, `baselineRows`, `tableIII`, `tableIV`)
  * run as `Par.map` tasks give bit-for-bit the results of a one-thread run:
  * the same run inside a `ForkJoinPool(1)`, whose worker keeps every
  * forked task and runs it in order.
  */
class ParallelFitSpec extends SparkSpec {
  import ParallelFitSpec.Outputs

  private lazy val handle = new StudyHandle(spark, MatcherSim.poStudy(nMatchers = 30, seed = 12L))
  private val cfg = NeuralFeatures.Config(lstmEpochs = 2, lstmHidden = 4, cnnEpochs = 2, cnnFilters = 2)

  private def run(): Outputs = {
    val (train, test) = Experiments.foldSplits(handle.matcherIds, 5, seed = 77L).head
    val a = Experiments.computeFold(spark, handle, handle, train, test, cfg, seed = 7L)
    Outputs(a, Experiments.baselineRows(handle, handle, a, seed = 8L),
      Experiments.tableIII(Vector(a)), Experiments.tableIV(Vector(a)))
  }

  private lazy val (parallel, parallelJobs) = {
    handle.measures; handle.warmupMeasures
    SparkJobCounter.count(spark)(run())
  }

  private lazy val sequential = {
    parallel
    val pool = new ForkJoinPool(1)
    try pool.submit(new Callable[Outputs] { def call(): Outputs = run() }).get(10, TimeUnit.MINUTES)
    finally pool.shutdown()
  }

  private def variants(o: Outputs) = {
    val a = o.fold
    Vector((a.pNone, a.fitNone), (a.p50, a.fit50), (a.p70, a.fit70))
  }

  test("the parallel fold submits no Spark job") {
    assert(parallelJobs === 0)
  }

  test("parallel and one-thread runs train the same networks") {
    variants(parallel).zip(variants(sequential)).foreach { case ((p, _), (s, _)) =>
      assert(p.lstms.length === Labels.Count)
      p.lstms.zip(s.lstms).foreach { case (x, y) => assert(x.params.sameElements(y.params)) }
      assert(p.cnns.keySet === s.cnns.keySet)
      assert(p.cnns.size === 16)
      p.cnns.foreach { case (k, net) => assert(net.params.sameElements(s.cnns(k).params), k) }
      assert(p.features.names === s.features.names)
      assert(p.features.rows.keySet === s.features.rows.keySet)
      p.features.rows.foreach { case (id, v) => assert(v.sameElements(s.features.rows(id)), id) }
    }
  }

  test("parallel and one-thread runs choose the same classifiers and give the same tables") {
    variants(parallel).zip(variants(sequential)).foreach { case ((_, p), (_, s)) =>
      assert(p.accuracies === s.accuracies)
      assert(p.models.map(m => (m.name, m.cvScores)).toVector === s.models.map(m => (m.name, m.cvScores)).toVector)
      assert(p.predictions.keySet === s.predictions.keySet)
      p.predictions.foreach { case (id, v) => assert(v.sameElements(s.predictions(id)), id) }
    }
    assert(parallel.baselines === sequential.baselines)
    assert(parallel.tableIII === sequential.tableIII)
    assert(parallel.tableIII.size === 11)
    assert(parallel.tableIV === sequential.tableIV)
    assert(parallel.tableIV.size === 20)
  }

  test("the model-choice report has one line per label, each naming a recorded choice") {
    val lines = Experiments.formatModelChoices(Vector(parallel.fold)).linesIterator.toVector
    assert(lines.size === 1 + Labels.Count)
    Labels.Names.zipWithIndex.foreach { case (l, i) =>
      val chosen = parallel.fold.fit50.models(i)
      val score = chosen.cvScores.toMap.get(chosen.name).fold("")(acc => f" $acc%.2f")
      assert(lines(1 + i).startsWith(f"fold 0 $l%-3s "))
      assert(lines(1 + i).contains(s"MExI_50 ${chosen.name}$score"))
    }
  }
}

object ParallelFitSpec {
  final case class Outputs(
      fold: Experiments.FoldArtifacts,
      baselines: Vector[Experiments.TableRow],
      tableIII: Vector[Experiments.TableRow],
      tableIV: Map[(String, String), Vector[String]])
}
