package repro.ml

/** Per-label classifier selection and permutation feature importance.
  *
  * Mirrors the paper's protocol (Section IV-B2): "we trained a set of
  * state-of-the-art classifiers (e.g., SVM and Random Forest) ... and
  * selected the top performing classifier to be used for testing".
  * Selection is by internal k-fold cross-validation accuracy on the
  * training set, so the test fold is never touched.
  */
object ModelSelection {

  /** The classifier zoo evaluated for every label. */
  def defaultZoo: Seq[Classifier] =
    Seq(LogisticRegression(), RandomForest(), LinearSvm())

  /** Internal CV accuracy of `clf` on (xs, ys). */
  def cvAccuracy(clf: Classifier, xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean],
                 folds: Int = 3, seed: Long = 17L): Double = {
    require(xs.nonEmpty && xs.length == ys.length, "bad CV data")
    val rnd = new java.util.Random(seed)
    val perm = rnd.ints(0, xs.length).distinct().limit(xs.length.toLong).toArray
    val k = math.min(folds, xs.length)
    var correct = 0
    for (f <- 0 until k) {
      val testIdx = perm.indices.filter(_ % k == f).map(perm)
      val trainIdx = perm.indices.filter(_ % k != f).map(perm)
      if (trainIdx.nonEmpty && testIdx.nonEmpty) {
        val m = clf.train(trainIdx.map(xs), trainIdx.map(ys), seed + f)
        correct += testIdx.count(i => m.predict(xs(i)) == ys(i))
      }
    }
    correct.toDouble / xs.length
  }

  /** A trained classifier with the internal CV accuracy of every zoo
    * member, in zoo order (empty for the constant model of a single-class
    * label, which runs no CV).
    */
  final case class Selection(name: String, model: TrainedModel, cvScores: Vector[(String, Double)])

  /** Train every zoo member, keep the one with the best internal CV
    * accuracy (the first in zoo order on a tie), then refit it on the full
    * training set.
    */
  def selectAndTrain(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean],
                     zoo: Seq[Classifier] = defaultZoo, seed: Long = 17L): Selection = {
    if (ys.forall(identity) || !ys.exists(identity))
      return Selection("Constant", ConstantModel(ys.count(identity).toDouble / ys.length), Vector.empty)
    val scored = zoo.map(c => (c, cvAccuracy(c, xs, ys, seed = seed))).toVector
    val best = scored.maxBy(_._2)._1
    Selection(best.name, best.train(xs, ys, seed), scored.map { case (c, a) => c.name -> a })
  }

  /** Permutation importance of each feature: mean accuracy drop when the
    * feature column is shuffled (over `repeats` shuffles). Stand-in for the
    * paper's SHAP analysis (Table IV) — both rank features by their
    * contribution to the trained model's predictions.
    */
  def permutationImportance(model: TrainedModel, xs: IndexedSeq[Array[Double]],
                            ys: IndexedSeq[Boolean], repeats: Int = 5,
                            seed: Long = 29L): Array[Double] = {
    require(xs.nonEmpty, "importance of empty data")
    val d = xs.head.length
    val base = xs.indices.count(i => model.predict(xs(i)) == ys(i)).toDouble / xs.length
    val rnd = new java.util.Random(seed)
    Array.tabulate(d) { j =>
      var drop = 0.0
      for (_ <- 0 until repeats) {
        val perm = rnd.ints(0, xs.length).distinct().limit(xs.length.toLong).toArray
        val acc = xs.indices.count { i =>
          val x = xs(i).clone()
          x(j) = xs(perm(i))(j)
          model.predict(x) == ys(i)
        }.toDouble / xs.length
        drop += base - acc
      }
      drop / repeats
    }
  }
}
