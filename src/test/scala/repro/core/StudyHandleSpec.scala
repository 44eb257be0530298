package repro.core

import repro.{SparkJobCounter, SparkSpec}
import repro.synth.MatcherSim

class StudyHandleSpec extends SparkSpec {

  private lazy val study = MatcherSim.poStudy(nMatchers = 12, seed = 21L)
  private lazy val handle = new StudyHandle(spark, study)

  test("measures cover every matcher") {
    assert(handle.measures.keySet === handle.matcherIds.toSet)
    handle.measures.values.foreach { m =>
      assert(m.precision >= 0.0 && m.precision <= 1.0)
      assert(m.recall >= 0.0 && m.recall <= 1.0)
      assert(m.resolution >= -1.0 && m.resolution <= 1.0)
    }
  }

  test("warm-up measures cover every matcher") {
    assert(handle.warmupMeasures.keySet === handle.matcherIds.toSet)
  }

  test("base features cover every matcher with all three aggregate sets") {
    val t = handle.baseFeatures
    assert(t.rows.keySet === handle.matcherIds.toSet)
    assert(t.names ===
      Predictors.names ++ BehavioralFeatures.names ++ MouseFeatures.names)
    t.rows.values.foreach(v => assert(v.forall(x => !x.isNaN && !x.isInfinity)))
  }

  test("histories are sorted by decision order") {
    handle.historyByMatcher.values.foreach { h =>
      assert(h.map(_.seq) === (0 until h.size))
    }
  }

  test("heat maps exist for every matcher's move events") {
    handle.matcherIds.foreach { id =>
      assert(handle.heatMaps.contains((id, MouseKinds.Move)))
    }
  }

  test("mean confidence agrees with the driver-side computation") {
    val byM = study.decisions.groupBy(_.matcherId)
    handle.matcherIds.foreach { id =>
      val exp = byM(id).map(_.conf).sum / byM(id).size
      assert(math.abs(handle.meanConf(id) - exp) < 1e-9)
    }
  }

  test("measures match a driver-side recomputation of P") {
    val byM = study.decisions.groupBy(_.matcherId)
    handle.matcherIds.foreach { id =>
      val finals = byM(id).groupBy(d => (d.aIdx, d.bIdx)).values.map(_.maxBy(_.ts))
      val p = finals.count(d =>
        study.task.referenceSet.contains(RefPair(d.aIdx, d.bIdx))).toDouble / finals.size
      assert(math.abs(handle.measures(id).precision - p) < 1e-9)
    }
  }

  /** Every per-matcher output of a handle, doubles as their bits. */
  private def outputs(h: StudyHandle): Seq[String] = {
    def bits(xs: Iterable[Double]) = xs.map(java.lang.Double.doubleToRawLongBits).mkString(",")
    def ms(m: Map[Long, MatcherMeasures]) = m.toSeq.sortBy(_._1).map { case (id, x) =>
      s"$id:" + bits(Seq(x.precision, x.recall, x.resolution, x.resolutionP, x.calibration))
    }
    ms(h.measures) ++ ms(h.warmupMeasures) ++
      h.baseFeatures.rows.toSeq.sortBy(_._1).map { case (id, v) => s"$id:" + bits(v) } ++
      h.heatMaps.toSeq.sortBy(_._1).map { case (k, g) => s"$k:" + bits(g.flatten) } ++
      h.meanConf.toSeq.sortBy(_._1).map { case (id, c) => s"$id:" + bits(Seq(c)) }
  }

  private def withPartitions[T](n: Int)(body: => T): T = {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    spark.conf.set(key, n.toString)
    try body finally spark.conf.set(key, before)
  }

  test("outputs are bit-identical across shuffle partitions and input order") {
    val reversed = study.copy(decisions = study.decisions.reverse, mouse = study.mouse.reverse,
      warmupDecisions = study.warmupDecisions.reverse)
    val base = withPartitions(64)(Studies.withHandle(spark, study)(outputs))
    assert(base.nonEmpty)
    assert(withPartitions(1)(Studies.withHandle(spark, study)(outputs)) === base)
    assert(withPartitions(64)(Studies.withHandle(spark, reversed)(outputs)) === base)
  }

  test("one Spark pass serves measures, base features, heat maps and mean confidence") {
    Studies.withHandle(spark, study) { h =>
      h.measures
      val (_, jobs) = SparkJobCounter.count(spark) { h.baseFeatures; h.heatMaps; h.meanConf }
      assert(jobs === 0)
    }
  }

  test("a matcher with mouse events but no decisions gets zero Phi_LRSM / Phi_Beh and no measures") {
    val decisions = Seq(Decision(1L, 0, 1, 1, 0.9, 1.0), Decision(1L, 1, 2, 3, 0.7, 4.0))
    val mouse = Seq(MouseEvent(2L, 10.0, 20.0, MouseKinds.Move, 0.5),
      MouseEvent(2L, 40.0, 60.0, MouseKinds.Left, 1.5))
    Studies.withHandle(spark, Studies.of(decisions, mouse)) { h =>
      val nDec = Predictors.names.size + BehavioralFeatures.names.size
      assert(h.baseFeatures.rows.keySet === Set(1L, 2L))
      assert(h.baseFeatures.vector(2L).take(nDec).forall(_ == 0.0))
      assert(h.baseFeatures.vector(2L).drop(nDec).toSeq === MouseFeatures.ofEvents(mouse).toSeq)
      assert(h.baseFeatures.vector(1L).drop(nDec).forall(_ == 0.0))
      assert(h.measures.keySet === Set(1L) && h.meanConf.keySet === Set(1L))
      assert(h.heatMaps.keySet === Set((2L, MouseKinds.Move), (2L, MouseKinds.Left)))
    }
  }

  test("a handle rejects an invalid study") {
    val bad = study.copy(decisions = study.decisions.updated(0, study.decisions(0).copy(conf = 1.5)))
    val e = intercept[IllegalArgumentException](new StudyHandle(spark, bad))
    assert(e.getMessage.contains("conf"))
  }
}
