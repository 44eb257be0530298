package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class ModelSelectionSpec extends AnyFunSuite {
  import ModelSelectionSpec.Renamed

  private def separable(n: Int, seed: Long): (IndexedSeq[Array[Double]], IndexedSeq[Boolean]) = {
    val rnd = new java.util.Random(seed)
    val data = (0 until n).map { _ =>
      val y = rnd.nextBoolean()
      (Array((if (y) 1.0 else -1.0) + rnd.nextGaussian() * 0.3, rnd.nextGaussian()), y)
    }
    (data.map(_._1), data.map(_._2))
  }

  test("cvAccuracy of a good model on separable data is high") {
    val (xs, ys) = separable(120, 1)
    assert(ModelSelection.cvAccuracy(LogisticRegression(), xs, ys) > 0.9)
  }

  test("cvAccuracy is bounded by [0, 1]") {
    val (xs, ys) = separable(40, 2)
    for (c <- ModelSelection.defaultZoo) {
      val a = ModelSelection.cvAccuracy(c, xs, ys)
      assert(a >= 0.0 && a <= 1.0)
    }
  }

  test("selectAndTrain returns an accurate model on separable data") {
    val (xs, ys) = separable(150, 3)
    val ModelSelection.Selection(name, m, _) = ModelSelection.selectAndTrain(xs, ys)
    assert(ModelSelection.defaultZoo.map(_.name).contains(name))
    val acc = xs.zip(ys).count { case (x, y) => m.predict(x) == y }.toDouble / xs.length
    assert(acc > 0.9)
  }

  test("selectAndTrain on single-class labels yields a constant model") {
    val xs = IndexedSeq(Array(1.0), Array(2.0), Array(3.0))
    val sel = ModelSelection.selectAndTrain(xs, IndexedSeq(false, false, false))
    assert(sel.name === "Constant")
    assert(sel.cvScores.isEmpty, "a constant label runs no CV")
    val m = sel.model
    assert(m.proba(Array(9.0)) === 0.0)
  }

  test("selectAndTrain records every zoo member's CV accuracy and picks the first arg-max") {
    val (xs, ys) = separable(60, 4)
    val zoo = Seq(LinearSvm(), Renamed("LogReg-a", LogisticRegression()),
      Renamed("LogReg-b", LogisticRegression()), RandomForest())
    val sel = ModelSelection.selectAndTrain(xs, ys, zoo, seed = 5L)
    assert(sel.cvScores.map(_._1) === zoo.map(_.name).toVector)
    sel.cvScores.zip(zoo).foreach { case ((_, acc), c) =>
      assert(acc === ModelSelection.cvAccuracy(c, xs, ys, seed = 5L))
    }
    val best = sel.cvScores.map(_._2).max
    assert(sel.name === sel.cvScores.find(_._2 == best).get._1)
    val tied = ModelSelection.selectAndTrain(xs, ys, zoo.slice(1, 3), seed = 5L)
    assert(tied.cvScores.map(_._2).distinct.size === 1)
    assert(tied.name === "LogReg-a")
  }

  test("permutation importance ranks the informative feature first") {
    val rnd = new java.util.Random(7)
    val xs = IndexedSeq.fill(200)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val ys = xs.map(_(0) > 0.0)
    val m = ModelSelection.selectAndTrain(xs, ys).model
    val imp = ModelSelection.permutationImportance(m, xs, ys)
    assert(imp(0) > imp(1))
    assert(imp(0) > 0.1)
  }

  test("permutation importance of pure noise is near zero") {
    val rnd = new java.util.Random(9)
    val xs = IndexedSeq.fill(100)(Array(rnd.nextGaussian()))
    val ys = IndexedSeq.fill(100)(rnd.nextBoolean())
    val m = ConstantModel(0.4)
    val imp = ModelSelection.permutationImportance(m, xs, ys)
    assert(math.abs(imp(0)) < 1e-12)
  }
}

object ModelSelectionSpec {
  /** `inner` under another name, to tell tied zoo members apart. */
  final case class Renamed(name: String, inner: Classifier) extends Classifier {
    def train(xs: Seq[Array[Double]], ys: Seq[Boolean], seed: Long): TrainedModel = inner.train(xs, ys, seed)
  }
}
