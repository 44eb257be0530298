package repro.core

import org.apache.spark.sql.SparkSession
import repro.{Oracle, SparkSpec}
import repro.synth.MatcherSim

class MeasuresSpec extends SparkSpec {
  import spark.implicits._

  /** Example 1 of the paper: history of Table I with reference match
    * M^e+ = {M11, M12, M23, M34} (1-based in the paper; kept as raw ints).
    */
  private def tableI = Seq(
    Decision(1L, 0, 3, 4, 1.0, 3.0),
    Decision(1L, 1, 1, 1, 0.9, 8.0),
    Decision(1L, 2, 1, 2, 0.5, 15.0),
    Decision(1L, 3, 1, 1, 0.5, 16.0),
    Decision(1L, 4, 2, 1, 0.45, 34.0),
  )
  private def refI = Set((1, 1), (1, 2), (2, 3), (3, 4))

  private def measure(h: Seq[Decision]): MatcherMeasures =
    Measures.ofHistory(h.head.matcherId, h, refI, refSize = 4)

  private def exampleMeasures: MatcherMeasures = measure(tableI)

  test("Example 1: precision is 3/4") {
    assert(exampleMeasures.precision === 0.75)
  }

  test("Example 1: recall is 3/4") {
    assert(exampleMeasures.recall === 0.75)
  }

  test("Example 1: resolution is 1.0 and not significant") {
    val m = exampleMeasures
    assert(m.resolution === 1.0)
    assert(m.resolutionP > 0.05, "the paper reports p = 0.5 for this history")
  }

  test("Example 1: calibration is mean history confidence minus precision") {
    // Mean of (1.0, 0.9, 0.5, 0.5, 0.45) = 0.67; P = 0.75 -> Cal = -0.08.
    // (The paper's prose says -0.12, which contradicts its own Eq. 5 —
    // see DESIGN.md 'Known deviations'.)
    assert(math.abs(exampleMeasures.calibration - (0.67 - 0.75)) < 1e-9)
  }

  test("a matcher with no correct decisions scores zero P and R") {
    val m = measure(Seq(Decision(7L, 0, 9, 9, 0.8, 1.0)))
    assert(m.precision === 0.0 && m.recall === 0.0)
  }

  test("measures are computed per matcher in one pass") {
    val study = Studies.of(tableI ++ Seq(Decision(2L, 0, 1, 1, 0.6, 1.0)))
    val ms = Studies.withHandle(spark, study)(_.measures)
    assert(ms.keySet === Set(1L, 2L))
    assert(ms(1L) === exampleMeasures)
    assert(ms(2L).precision === 1.0 && ms(2L).recall === 0.25)
  }

  test("revisits affect precision through the final matrix only") {
    // A wrong pair retracted to conf 0 leaves a clean match.
    val m = measure(Seq(
      Decision(3L, 0, 9, 9, 0.8, 1.0),
      Decision(3L, 1, 9, 9, 0.0, 2.0),
      Decision(3L, 2, 1, 1, 0.9, 3.0),
    ))
    assert(m.precision === 1.0)
  }

  test("oracle: P, R and Cal equal DuckDB's query over the final matrix") {
    val po = MatcherSim.poStudy(nMatchers = 12, seed = 21L)
    val silent = Seq(Decision(99L, 0, 1, 1, 0.0, 1.0), Decision(99L, 1, 5, 5, 0.0, 2.0))
    val decisions = po.decisions ++ tableI.map(_.copy(matcherId = 98L)) ++ silent
    val ref = po.task.reference.map(r => (r.aIdx, r.bIdx)).toSet
    val ms = decisions.groupBy(_.matcherId).map { case (id, h) =>
      Measures.ofHistory(id, h, ref, po.task.reference.size)
    }
    MeasuresSpec.assertOracle(spark, ms.toSeq, decisions, po.task.reference)
  }

  test("thresholds derive from the train population percentiles") {
    val train = (1 to 10).map(i => MatcherMeasures(i.toLong, 0.5, 0.5,
      i / 10.0, 0.01, i / 20.0))
    val t = Thresholds.fromTrain(train)
    assert(t.dP === 0.5 && t.dR === 0.5)
    assert(math.abs(t.dRes - repro.ml.Stats.percentile((1 to 10).map(_ / 10.0), 80)) < 1e-12)
    assert(math.abs(t.dCal - repro.ml.Stats.percentile((1 to 10).map(_ / 20.0), 20)) < 1e-12)
  }

  test("labels apply Eqs. 2-5 with significance gating on resolution") {
    val t = Thresholds(0.5, 0.5, 0.3, 0.2)
    val good = MatcherMeasures(1L, 0.8, 0.6, 0.7, 0.01, 0.1)
    assert(MatcherMeasures.labels(good, t).toSeq === Seq(true, true, true, true))
    val insignificant = good.copy(resolutionP = 0.2)
    assert(MatcherMeasures.labels(insignificant, t)(Labels.Correlated) === false)
    val overconfident = good.copy(calibration = 0.5)
    assert(MatcherMeasures.labels(overconfident, t)(Labels.Calibrated) === false)
    val underconfident = good.copy(calibration = -0.1)
    assert(MatcherMeasures.labels(underconfident, t)(Labels.Calibrated) === true)
  }

  test("characterize maps each matcher to its labels") {
    val ms = Seq(
      MatcherMeasures(1L, 0.9, 0.9, 0.9, 0.001, 0.0),
      MatcherMeasures(2L, 0.1, 0.1, -0.5, 0.9, 0.5),
    )
    val t = Thresholds(0.5, 0.5, 0.3, 0.2)
    val c = Measures.characterize(ms, t)
    assert(c(1L).toSeq === Seq(true, true, true, true))
    assert(c(2L).toSeq === Seq(false, false, false, false))
  }
}

object MeasuresSpec {

  /** Asserts that `ms` holds, per matcher of `decisions`, the P, R and Cal
    * that DuckDB computes independently: Eq. 1 as a latest-decision
    * window, sigma as its positive entries, then counts against
    * `reference` and the mean history confidence.
    */
  def assertOracle(spark: SparkSession, ms: Seq[MatcherMeasures],
                   decisions: Seq[Decision], reference: Seq[RefPair]): Unit = {
    import spark.implicits._
    Oracle.assertEquivalent(
      ms.map(m => (m.matcherId.toString, m.precision, m.recall, m.calibration))
        .toDF("matcherid", "p", "r", "cal"),
      """WITH sigma AS (
        |  SELECT matcherId, aIdx, bIdx
        |  FROM (SELECT *, ROW_NUMBER() OVER (
        |          PARTITION BY matcherId, aIdx, bIdx
        |          ORDER BY CAST(ts AS DOUBLE) DESC, CAST(seq AS INT) DESC) rn
        |        FROM decisions)
        |  WHERE rn = 1 AND CAST(conf AS DOUBLE) > 0),
        |hits AS (
        |  SELECT s.matcherId, COUNT(*) AS n, COUNT(r.aIdx) AS hit
        |  FROM sigma s LEFT JOIN reference r ON s.aIdx = r.aIdx AND s.bIdx = r.bIdx
        |  GROUP BY s.matcherId),
        |hist AS (
        |  SELECT matcherId, AVG(CAST(conf AS DOUBLE)) AS meanConf
        |  FROM decisions GROUP BY matcherId)
        |SELECT h.matcherId AS matcherid,
        |       COALESCE(CAST(x.hit AS DOUBLE) / x.n, 0.0) AS p,
        |       COALESCE(CAST(x.hit AS DOUBLE), 0.0) / (SELECT COUNT(*) FROM reference) AS r,
        |       h.meanConf - COALESCE(CAST(x.hit AS DOUBLE) / x.n, 0.0) AS cal
        |FROM hist h LEFT JOIN hits x ON h.matcherId = x.matcherId""".stripMargin,
      "decisions" -> decisions.toDF(),
      "reference" -> reference.toDF(),
    )
  }
}
