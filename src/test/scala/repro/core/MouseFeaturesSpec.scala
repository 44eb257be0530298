package repro.core

import repro.{Oracle, SparkSpec}

class MouseFeaturesSpec extends SparkSpec {
  import spark.implicits._

  private def events = Seq(
    MouseEvent(1L, 0.0, 0.0, MouseKinds.Move, 0.0),
    MouseEvent(1L, 3.0, 4.0, MouseKinds.Move, 1.0),   // step 5
    MouseEvent(1L, 3.0, 4.0, MouseKinds.Left, 2.0),   // step 0
    MouseEvent(1L, 6.0, 8.0, MouseKinds.Scroll, 3.0), // step 5
  )

  /** Named access to a kernel feature vector. */
  private def feature(v: Array[Double], name: String): Double =
    v(MouseFeatures.names.indexOf(name))

  private def row(name: String): Double = feature(MouseFeatures.ofEvents(events), name)

  test("per-kind counts and total") {
    assert(row("mou_total") === 4.0)
    assert(row("mou_moves") === 2.0)
    assert(row("mou_lefts") === 1.0)
    assert(row("mou_rights") === 0.0)
    assert(row("mou_scrolls") === 1.0)
    assert(math.abs(row("mou_scrollRatio") - 0.25) < 1e-12)
  }

  test("total path length sums Euclidean steps in time order") {
    assert(math.abs(row("mou_totalLength") - 10.0) < 1e-9)
    assert(MouseFeatures.ofEvents(events.reverse).toSeq === MouseFeatures.ofEvents(events).toSeq)
  }

  test("position statistics") {
    assert(math.abs(row("mou_avgX") - 3.0) < 1e-12)
    assert(math.abs(row("mou_avgY") - 4.0) < 1e-12)
  }

  test("total time and speed") {
    assert(row("mou_totalTime") === 3.0)
    assert(math.abs(row("mou_avgSpeed") - 10.0 / 4.0) < 1e-9)
  }

  test("a single event gives zero length without nulls") {
    val r = MouseFeatures.ofEvents(Seq(MouseEvent(9L, 5.0, 5.0, MouseKinds.Move, 1.0)))
    assert(feature(r, "mou_totalLength") === 0.0)
    assert(feature(r, "mou_stdX") === 0.0)
  }

  test("features are per matcher") {
    val two = events ++ Seq(MouseEvent(2L, 1.0, 1.0, MouseKinds.Move, 0.0))
    val t = Studies.withHandle(spark, Studies.of(Seq.empty, two))(_.baseFeatures)
    val mou = t.names.size - MouseFeatures.names.size until t.names.size
    assert(t.rows.size === 2)
    assert(mou.map(t.vector(1L)) === MouseFeatures.ofEvents(events).toSeq)
    assert(mou.map(t.vector(2L)) === MouseFeatures.ofEvents(two.drop(4)).toSeq)
  }

  test("declared names match the produced columns") {
    assert(MouseFeatures.ofEvents(events).length === MouseFeatures.names.length)
    assert(MouseFeatures.ofEvents(Seq.empty).toSeq === Seq.fill(MouseFeatures.names.length)(0.0))
  }

  test("oracle: per-kind counts agree with DuckDB") {
    val mouse = events ++ Seq(
      MouseEvent(2L, 1.0, 1.0, MouseKinds.Right, 0.5),
      MouseEvent(2L, 2.0, 2.0, MouseKinds.Move, 1.5),
    )
    val kernelDf = mouse.groupBy(_.matcherId).toSeq.map { case (id, es) =>
      val f = MouseFeatures.ofEvents(es)
      (id.toString, feature(f, "mou_moves"), feature(f, "mou_lefts"),
        feature(f, "mou_rights"), feature(f, "mou_scrolls"), feature(f, "mou_avgX"))
    }.toDF("matcherid", "moves", "lefts", "rights", "scrolls", "avgx")
    Oracle.assertEquivalent(
      kernelDf,
      """SELECT matcherId AS matcherid,
        |  CAST(SUM(CASE WHEN kind='move' THEN 1 ELSE 0 END) AS DOUBLE) AS moves,
        |  CAST(SUM(CASE WHEN kind='left' THEN 1 ELSE 0 END) AS DOUBLE) AS lefts,
        |  CAST(SUM(CASE WHEN kind='right' THEN 1 ELSE 0 END) AS DOUBLE) AS rights,
        |  CAST(SUM(CASE WHEN kind='scroll' THEN 1 ELSE 0 END) AS DOUBLE) AS scrolls,
        |  AVG(CAST(x AS DOUBLE)) AS avgx
        |FROM mouse GROUP BY matcherId""".stripMargin,
      "mouse" -> mouse.toDF(),
    )
  }
}
