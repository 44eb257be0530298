package repro.core

import repro.synth.{MatcherTraits, MatchingTask, StudyData}

/** Hand-made studies for tests that run the population ETL on a few rows. */
object Studies {

  /** A 10 x 10 task on a 360 x 200 screen whose reference M^e+ is Example
    * 1's {M11, M12, M23, M34} (the paper's 1-based indices kept raw).
    */
  val task: MatchingTask = MatchingTask("T", nA = 10, nB = 10,
    reference = Vector(RefPair(1, 1), RefPair(1, 2), RefPair(2, 3), RefPair(3, 4)),
    difficulty = Map.empty, decoys = Vector.empty, screenW = 360, screenH = 200)

  /** A study of the matchers that appear in `decisions` or `mouse`, with
    * `warmup` as warm-up decisions on the same task.
    */
  def of(decisions: Seq[Decision], mouse: Seq[MouseEvent] = Seq.empty,
         warmup: Seq[Decision] = Seq.empty): StudyData = {
    val ids = (decisions.map(_.matcherId) ++ mouse.map(_.matcherId)).distinct.sorted
    StudyData(task, task, ids.map(id => MatcherTraits(id, 0.5, 0.5, 0.0, 5.0, 0)).toVector,
      decisions.toVector, mouse.toVector, warmup.toVector)
  }

  /** Runs `body` on a handle of `study`, then drops the handle's caches. */
  def withHandle[T](spark: org.apache.spark.sql.SparkSession, study: StudyData)(body: StudyHandle => T): T = {
    val h = new StudyHandle(spark, study)
    try body(h)
    finally { h.decisions.unpersist(); h.mouse.unpersist(); h.reference.unpersist(); h.warmup.unpersist() }
  }
}
