package repro.core

import repro.{Oracle, SparkSpec}

class BehavioralFeaturesSpec extends SparkSpec {
  import spark.implicits._

  private def history = Seq(
    Decision(1L, 0, 0, 0, 0.8, 10.0),
    Decision(1L, 1, 1, 1, 0.6, 25.0),
    Decision(1L, 2, 0, 0, 0.4, 45.0), // revisit of (0,0)
  )

  /** Named access to a kernel feature vector. */
  private def feature(v: Array[Double], name: String): Double =
    v(BehavioralFeatures.names.indexOf(name))

  private def row(name: String): Double = feature(BehavioralFeatures.ofHistory(history), name)

  test("counts, distinct pairs and mind changes") {
    assert(row("beh_count") === 3.0)
    assert(row("beh_distinctCorr") === 2.0)
    assert(row("beh_mindChanges") === 1.0)
  }

  test("confidence aggregates") {
    assert(math.abs(row("beh_avgConf") - 0.6) < 1e-12)
    assert(row("beh_minConf") === 0.4)
    assert(row("beh_maxConf") === 0.8)
    assert(math.abs(row("beh_stdConf") - 0.2) < 1e-12)
  }

  test("time aggregates use inter-decision gaps") {
    // Gaps: 15, 20.
    assert(math.abs(row("beh_avgTime") - 17.5) < 1e-12)
    assert(row("beh_maxTime") === 20.0)
    assert(math.abs(row("beh_totalTime") - 35.0) < 1e-12)
  }

  test("confidence slope captures the declining trend") {
    // conf = 0.8, 0.6, 0.4 over seq 0,1,2 -> slope -0.2.
    assert(math.abs(row("beh_confSlope") + 0.2) < 1e-9)
  }

  test("gap slope averages seq x gap over the decisions that have a gap") {
    // Gaps 15 at seq 1 and 20 at seq 2; mean seq over all three decisions
    // is 1 and var(seq) = 2/3: (mean(15, 40) - 1 * 17.5) / (2/3) = 15.
    assert(math.abs(row("beh_gapSlope") - 15.0) < 1e-9)
  }

  test("single-decision histories produce zero gaps and slopes, not nulls") {
    val r = BehavioralFeatures.ofHistory(Seq(Decision(5L, 0, 0, 0, 0.5, 3.0)))
    assert(feature(r, "beh_avgTime") === 0.0)
    assert(feature(r, "beh_stdConf") === 0.0)
    assert(feature(r, "beh_confSlope") === 0.0)
    assert(feature(r, "beh_totalTime") === 0.0)
  }

  test("features are per matcher") {
    val two = history ++ Seq(Decision(2L, 0, 0, 0, 1.0, 1.0))
    val rows = Studies.withHandle(spark, Studies.of(two))(_.baseFeatures)
    val beh = Predictors.names.size until Predictors.names.size + BehavioralFeatures.names.size
    assert(rows.rows.size === 2)
    assert(beh.map(rows.vector(1L)) === BehavioralFeatures.ofHistory(history).toSeq)
    assert(beh.map(rows.vector(2L)) === BehavioralFeatures.ofHistory(two.drop(3)).toSeq)
  }

  test("declared names match the produced columns") {
    assert(BehavioralFeatures.ofHistory(history).length === BehavioralFeatures.names.length)
    assert(BehavioralFeatures.ofHistory(Seq.empty).toSeq === Seq.fill(BehavioralFeatures.names.length)(0.0))
  }

  test("oracle: count/avg/min/max/distinct agree with DuckDB") {
    val decisions = history ++ Seq(
      Decision(2L, 0, 3, 3, 1.0, 2.0),
      Decision(2L, 1, 3, 4, 0.2, 7.0),
    )
    val kernelDf = decisions.groupBy(_.matcherId).toSeq.map { case (id, h) =>
      val f = BehavioralFeatures.ofHistory(h)
      (id.toString, feature(f, "beh_count"), feature(f, "beh_distinctCorr"),
        feature(f, "beh_avgConf"), feature(f, "beh_minConf"), feature(f, "beh_maxConf"),
        feature(f, "beh_totalTime"))
    }.toDF("matcherid", "cnt", "dst", "avgc", "minc", "maxc", "tot")
    Oracle.assertEquivalent(
      kernelDf,
      """SELECT matcherId AS matcherid,
        |       CAST(COUNT(*) AS DOUBLE) AS cnt,
        |       CAST(COUNT(DISTINCT aIdx || '_' || bIdx) AS DOUBLE) AS dst,
        |       AVG(CAST(conf AS DOUBLE)) AS avgc,
        |       MIN(CAST(conf AS DOUBLE)) AS minc,
        |       MAX(CAST(conf AS DOUBLE)) AS maxc,
        |       MAX(CAST(ts AS DOUBLE)) - MIN(CAST(ts AS DOUBLE)) AS tot
        |FROM decisions GROUP BY matcherId""".stripMargin,
      "decisions" -> decisions.toDF(),
    )
  }
}
