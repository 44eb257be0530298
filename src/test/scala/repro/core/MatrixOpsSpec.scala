package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class MatrixOpsSpec extends SparkSpec {
  import spark.implicits._

  /** The paper's Table I history (Example 1): M34@3 conf 1.0, M11@8 conf
    * 0.9, M12@15 conf 0.5, M11@16 conf 0.5 (revisit), M21@34 conf 0.45.
    */
  private def tableIRows = Seq(
    Decision(1L, 0, 3, 4, 1.0, 3.0),
    Decision(1L, 1, 1, 1, 0.9, 8.0),
    Decision(1L, 2, 1, 2, 0.5, 15.0),
    Decision(1L, 3, 1, 1, 0.5, 16.0),
    Decision(1L, 4, 2, 1, 0.45, 34.0),
  )
  private def tableI = tableIRows.toDF()

  test("Eq. 1: the final matrix keeps the latest confidence per entry") {
    val m = MatrixOps.finalEntries(tableIRows).view.mapValues(_.conf).toMap
    assert(m.size === 4)
    assert(m((3, 4)) === 1.0)
    assert(m((1, 1)) === 0.5) // revisit at t=16 overrides 0.9 at t=8
    assert(m((1, 2)) === 0.5)
    assert(m((2, 1)) === 0.45)
  }

  test("final matrix keeps matchers separate") {
    val two = tableI.union(Seq(Decision(2L, 0, 1, 1, 0.8, 1.0)).toDF())
    val m = MatrixOps.sigma(two)
    assert(m.where(col("matcherId") === 2L).count() === 1)
    assert(m.where(col("matcherId") === 1L).count() === 4)
  }

  test("ties on ts break by seq (later decision wins)") {
    val rows = Seq(
      Decision(1L, 0, 0, 0, 0.3, 5.0),
      Decision(1L, 1, 0, 0, 0.7, 5.0),
    )
    val m = MatrixOps.sigma(rows.toDF()).collect()
    assert(m.length === 1 && m.head.getAs[Double]("conf") === 0.7)
    for (h <- Seq(rows, rows.reverse))
      assert(MatrixOps.finalEntries(h).values.map(_.conf).toSeq === Seq(0.7))
  }

  test("sigma drops zero-confidence entries") {
    val df = Seq(
      Decision(1L, 0, 0, 0, 0.4, 1.0),
      Decision(1L, 1, 0, 0, 0.0, 2.0), // later decision retracts the pair
      Decision(1L, 2, 1, 1, 0.6, 3.0),
    ).toDF()
    val s = MatrixOps.sigma(df).collect()
    assert(s.length === 1)
    assert(s.head.getAs[Int]("aIdx") === 1)
  }

  test("consensus counts matchers per final pair") {
    val df = Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(2L, 0, 0, 0, 0.8, 1.0),
      Decision(2L, 1, 1, 1, 0.7, 2.0),
      Decision(3L, 0, 0, 0, 0.6, 1.0),
    ).toDF()
    val c = MatrixOps.consensus(df).collect()
      .map(r => (r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx")) -> r.getAs[Long]("consensus"))
      .toMap
    assert(c((0, 0)) === 3L)
    assert(c((1, 1)) === 1L)
  }

  test("consensus counts a matcher once even with revisits") {
    val df = Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(1L, 1, 0, 0, 0.8, 2.0),
    ).toDF()
    val c = MatrixOps.consensus(df).collect()
    assert(c.length === 1 && c.head.getAs[Long]("consensus") === 1L)
  }

  /** The driver kernel's Eq. 1 entries, in the oracle's column layout. */
  private def kernelFinalMatrix(decisions: Seq[Decision]) =
    decisions.groupBy(_.matcherId).toSeq.flatMap { case (m, h) =>
      MatrixOps.finalEntries(h).values.map(d => (m.toString, d.aIdx.toString, d.bIdx.toString, d.conf))
    }.toDF("matcherid", "aidx", "bidx", "conf")

  /** The driver kernel's consensus counts, in the oracle's column layout. */
  private def kernelConsensus(decisions: Seq[Decision]) =
    MatrixOps.consensusOf(decisions.groupBy(_.matcherId).values).toSeq
      .map { case ((a, b), n) => (a.toString, b.toString, n.toLong) }
      .toDF("aidx", "bidx", "consensus")

  test("oracle: final matrix equals DuckDB's latest-decision query") {
    // Every final entry here is positive, so Spark's sigma is the whole
    // final matrix.
    val rows = tableIRows ++ Seq(
      Decision(2L, 0, 0, 5, 0.25, 1.0),
      Decision(2L, 1, 0, 5, 0.75, 9.0),
    )
    val decisions = rows.toDF().cache()
    val spark2 = MatrixOps.sigma(decisions)
      .select(col("matcherId").cast("string").as("matcherid"),
        col("aIdx").cast("string").as("aidx"),
        col("bIdx").cast("string").as("bidx"),
        col("conf").cast("double").as("conf"))
    for (actual <- Seq(spark2, kernelFinalMatrix(rows))) Oracle.assertEquivalent(
      actual,
      """SELECT matcherId AS matcherid, aIdx AS aidx, bIdx AS bidx,
        |       CAST(conf AS DOUBLE) AS conf
        |FROM (SELECT *, ROW_NUMBER() OVER (
        |        PARTITION BY matcherId, aIdx, bIdx
        |        ORDER BY CAST(ts AS DOUBLE) DESC, CAST(seq AS INT) DESC) rn
        |      FROM decisions)
        |WHERE rn = 1""".stripMargin,
      "decisions" -> decisions,
    )
  }

  test("oracle: consensus equals DuckDB's grouped count") {
    val rows = Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(1L, 1, 0, 0, 0.8, 2.0),
      Decision(2L, 0, 0, 0, 0.7, 1.0),
      Decision(2L, 1, 2, 2, 0.6, 2.0),
    )
    val decisions = rows.toDF().cache()
    val sparkDf = MatrixOps.consensus(decisions)
      .select(col("aIdx").cast("string").as("aidx"),
        col("bIdx").cast("string").as("bidx"),
        col("consensus").cast("long").as("consensus"))
    for (actual <- Seq(sparkDf, kernelConsensus(rows))) Oracle.assertEquivalent(
      actual,
      """SELECT aIdx AS aidx, bIdx AS bidx,
        |       COUNT(DISTINCT matcherId) AS consensus
        |FROM (SELECT *, ROW_NUMBER() OVER (
        |        PARTITION BY matcherId, aIdx, bIdx
        |        ORDER BY CAST(ts AS DOUBLE) DESC) rn
        |      FROM decisions)
        |WHERE rn = 1 AND CAST(conf AS DOUBLE) > 0
        |GROUP BY aIdx, bIdx""".stripMargin,
      "decisions" -> decisions,
    )
  }
}
