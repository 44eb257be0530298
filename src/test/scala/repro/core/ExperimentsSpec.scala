package repro.core

import repro.SparkSpec
import repro.synth.MatcherSim

class ExperimentsSpec extends SparkSpec {

  test("foldSplits partitions the ids into k disjoint test folds") {
    val ids = (1L to 106L).toVector
    val splits = Experiments.foldSplits(ids, 5, seed = 7)
    assert(splits.size === 5)
    val allTest = splits.flatMap(_._2)
    assert(allTest.sorted === ids)
    splits.foreach { case (train, test) =>
      assert((train.toSet intersect test.toSet).isEmpty)
      assert((train ++ test).toSet === ids.toSet)
      assert(test.size === 21 || test.size === 22)
    }
  }

  test("foldSplits is deterministic in the seed") {
    val ids = (1L to 20L).toVector
    assert(Experiments.foldSplits(ids, 4, 3) === Experiments.foldSplits(ids, 4, 3))
    assert(Experiments.foldSplits(ids, 4, 3) !== Experiments.foldSplits(ids, 4, 4))
  }

  test("accuracy table formatting includes every method and metric header") {
    val rows = Vector(
      Experiments.TableRow("MExI_50", MExI.Accuracies(0.98, 0.93, 0.81, 0.87, 0.68)))
    val s = Experiments.formatAccuracyTable("T", rows)
    assert(s.contains("MExI_50"))
    assert(s.contains("A_ML"))
    assert(s.contains("0.98") && s.contains("0.68"))
  }

  test("utilization table formatting includes fused-match columns") {
    val rows = Vector(Experiments.UtilizationRow("MExI", 3, 0.8, 0.5, 0.7, 0.1, 0.9, 0.4))
    val s = Experiments.formatUtilization("U", rows)
    assert(s.contains("fusedP") && s.contains("0.90") && s.contains("0.40"))
  }

  test("a selector that keeps no matcher reports n = 0 and the fallback, marked in the table") {
    val po = new StudyHandle(spark, MatcherSim.poStudy(nMatchers = 30, seed = 12L))
    val thresholds = Thresholds.fromTrain(po.measures.values.toVector)
    val noExperts = po.matcherIds.map(_ -> Array.fill(Labels.Count)(false)).toMap
    val rows = Experiments.utilization(spark, po, noExperts, thresholds)
    val mexi = rows.find(_.method == "MExI").get
    val all = rows.find(_.method == "no_filter").get
    assert(mexi.n === 0 && mexi.fallback)
    assert(all.n === 30 && !all.fallback)
    assert((mexi.p, mexi.r, mexi.res, mexi.absCal, mexi.fusedP, mexi.fusedR) ===
      (all.p, all.r, all.res, all.absCal, all.fusedP, all.fusedR), "the full population's columns")
    val table = Experiments.formatUtilization("U", rows).linesIterator.toVector
    assert(table.exists(l => l.startsWith("MExI ") && l.contains("   0* ")))
    assert(table.last.startsWith("* "))
    val plain = Experiments.formatUtilization("U", rows.filterNot(_.fallback))
    assert(!plain.contains("*"))
  }
}
