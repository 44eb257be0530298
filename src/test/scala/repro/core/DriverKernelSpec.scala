package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.synth.{MatcherSim, StudyData}

/** The driver-side kernels (`MatrixOps.finalEntries` / `consensusOf`,
  * `Measures.ofHistory`, `SeqFeatures.sequence`) against their Spark
  * reference implementations, on a simulated population, on its MExI_70
  * sub-matcher windows, and on a PO-train / OAEI-test pair.
  */
class DriverKernelSpec extends SparkSpec {
  import spark.implicits._

  private type Histories = Vector[(Long, Vector[Decision])]

  private lazy val po = MatcherSim.poStudy(nMatchers = 30, seed = 12L)
  private lazy val oaei = MatcherSim.oaeiStudy(nMatchers = 12, seed = 43L)

  private def histories(s: StudyData): Histories =
    s.decisions.groupBy(_.matcherId).toVector.sortBy(_._1).map { case (id, h) => id -> h.sortBy(_.seq) }

  private lazy val poHists = histories(po)
  private lazy val windowHists: Histories = {
    val byId = poHists.toMap
    MExI.windows(byId, poHists.map(_._1), MExI.Variant70)
      .map(s => s.entityId -> MExI.sliceDecisions(s, byId))
  }

  private def df(hs: Histories): DataFrame = hs.flatMap(_._2).toDF()

  private def reference(s: StudyData) = s.task.reference.map(r => (r.aIdx, r.bIdx)).toSet

  test("Eq. 1: finalEntries equals finalMatrix entry for entry") {
    val sparkRows = MatrixOps.finalMatrix(df(poHists)).collect().map { r =>
      (r.getAs[Long]("matcherId"), r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx")) ->
        (r.getAs[Double]("conf"), r.getAs[Double]("ts"), r.getAs[Int]("seq"))
    }.toMap
    val kernelRows = poHists.flatMap { case (id, h) =>
      MatrixOps.finalEntries(h).map { case ((a, b), d) => (id, a, b) -> (d.conf, d.ts, d.seq) }
    }.toMap
    assert(kernelRows.size === sparkRows.size)
    assert(kernelRows === sparkRows)
  }

  test("consensusOf equals consensus, on the population and on a test population") {
    for (hs <- Seq(poHists, histories(oaei))) {
      val sparkCounts = MatrixOps.consensus(df(hs)).collect().map { r =>
        (r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx")) -> r.getAs[Long]("consensus")
      }.toMap
      assert(MatrixOps.consensusOf(hs.map(_._2)).view.mapValues(_.toLong).toMap === sparkCounts)
    }
  }

  private def assertSameMeasures(hs: Histories, s: StudyData): Unit = {
    val sparkMs = Measures.compute(spark, df(hs), s.referenceDf(spark), s.task.reference.size)
      .map(m => m.matcherId -> m).toMap
    assert(sparkMs.keySet === hs.map(_._1).toSet)
    val ref = reference(s)
    hs.foreach { case (id, h) =>
      val k = Measures.ofHistory(id, h, ref, s.task.reference.size)
      val m = sparkMs(id)
      assert(k.copy(calibration = 0.0) === m.copy(calibration = 0.0), s"entity $id")
      assert(math.abs(k.calibration - m.calibration) <= 1e-12, s"entity $id")
    }
  }

  test("ofHistory equals Measures.compute on the population") {
    assertSameMeasures(poHists, po)
  }

  test("ofHistory equals Measures.compute on the MExI_70 windows") {
    assert(windowHists.size > poHists.size)
    assertSameMeasures(windowHists, po)
  }

  test("ofHistory gives an empty sigma P = R = 0, gamma = 0, p = 1, Cal = mean confidence") {
    val h = Vector(Decision(9L, 0, 1, 1, 0.0, 1.0), Decision(9L, 1, 2, 2, 0.0, 2.0))
    assert(Measures.ofHistory(9L, h, Set((1, 1)), 4) === MatcherMeasures(9L, 0.0, 0.0, 0.0, 1.0, 0.0))
    assertSameMeasures(Vector(9L -> h), po)
  }

  /** `entities`' sequences under the consensus of `population`,
    * normalized by `n`, built both ways.
    */
  private def assertSameSequences(entities: Histories, population: Histories, n: Int): Unit = {
    val sparkSeqs = SeqFeatures.sequences(df(entities), MatrixOps.consensus(df(population)), n)
    assert(sparkSeqs.keySet === entities.map(_._1).toSet)
    val cons = MatrixOps.consensusOf(population.map(_._2))
    entities.foreach { case (id, h) =>
      val k = SeqFeatures.sequence(h, cons, n)
      assert(k.map(_.toSeq) === sparkSeqs(id).map(_.toSeq), s"entity $id")
    }
  }

  test("sequence equals SeqFeatures.sequences on the population and its windows") {
    val (train, test) = poHists.splitAt(24)
    assertSameSequences(train ++ windowHists ++ test, train, train.size)
  }

  test("kernels equal the Spark path for a PO-train / OAEI-test pair") {
    // The rules of MExI.prepare: train entities under the train consensus,
    // test matchers of another task under their own population's.
    val train = poHists
    val test = histories(oaei)
    assertSameSequences(train, train, train.size)
    assertSameSequences(test, test, test.size)
    assertSameMeasures(test, oaei)
  }
}
