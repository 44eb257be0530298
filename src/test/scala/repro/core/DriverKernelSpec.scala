package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.synth.{MatcherSim, StudyData}

/** The per-entity kernels (`MatrixOps.sigmaOf` / `consensusOf`,
  * `Measures.ofHistory`, `SeqFeatures.sequence`) called on the driver, as
  * `MExI.prepare` calls them, against the Spark population ETL that runs
  * them per matcher, on a simulated population and on a PO-train /
  * OAEI-test pair; and the measures of the population's MExI_70
  * sub-matcher windows against DuckDB.
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

  test("Spark sigma equals sigmaOf per matcher") {
    val sparkRows = MatrixOps.sigma(df(poHists)).as[Decision].collect().toSet
    val kernelRows = poHists.flatMap { case (_, h) => MatrixOps.sigmaOf(h) }.toSet
    assert(kernelRows.nonEmpty)
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

  /** The population ETL's measures of `s` against the driver kernel's. */
  private def assertSameMeasures(hs: Histories, s: StudyData): Unit = {
    val handleMs = Studies.withHandle(spark, s)(_.measures)
    assert(handleMs.keySet === hs.map(_._1).toSet)
    val ref = reference(s)
    hs.foreach { case (id, h) =>
      assert(Measures.ofHistory(id, h, ref, s.task.reference.size) === handleMs(id), s"entity $id")
    }
  }

  test("StudyHandle measures equal ofHistory on the population") {
    assertSameMeasures(poHists, po)
  }

  test("MExI_70 window measures equal DuckDB's P, R and Cal") {
    assert(windowHists.size > poHists.size)
    val ref = reference(po)
    val ms = windowHists.map { case (id, h) => Measures.ofHistory(id, h, ref, po.task.reference.size) }
    MeasuresSpec.assertOracle(spark, ms, windowHists.flatMap(_._2), po.task.reference)
  }

  test("ofHistory gives an empty sigma P = R = 0, gamma = 0, p = 1, Cal = mean confidence") {
    val h = Vector(Decision(9L, 0, 1, 1, 0.0, 1.0), Decision(9L, 1, 2, 2, 0.0, 2.0))
    val m = Measures.ofHistory(9L, h, Set((1, 1)), 4)
    assert(m === MatcherMeasures(9L, 0.0, 0.0, 0.0, 1.0, 0.0))
    MeasuresSpec.assertOracle(spark, Seq(m), h, Seq(RefPair(1, 1), RefPair(2, 3), RefPair(3, 3), RefPair(4, 4)))
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
