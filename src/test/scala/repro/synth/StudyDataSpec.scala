package repro.synth

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Decision, ExpertFilter, MouseEvent}

class StudyDataSpec extends AnyFunSuite {

  private lazy val study = MatcherSim.poStudy(nMatchers = 3, seed = 5L)

  /** The study with its `i`-th decision replaced. */
  private def withDecision(i: Int)(f: Decision => Decision): StudyData =
    study.copy(decisions = study.decisions.updated(i, f(study.decisions(i))))

  private def withMouse(i: Int)(f: MouseEvent => MouseEvent): StudyData =
    study.copy(mouse = study.mouse.updated(i, f(study.mouse(i))))

  /** Asserts that validation rejects `s` naming the matcher and `field`. */
  private def rejects(s: StudyData, matcherId: Long, field: String): Unit = {
    val e = intercept[IllegalArgumentException](StudyData.validate(s))
    assert(e.getMessage.contains(s"matcher $matcherId:"), e.getMessage)
    assert(e.getMessage.contains(field), e.getMessage)
  }

  test("simulated studies and their truncations are valid") {
    StudyData.validate(study)
    StudyData.validate(MatcherSim.poStudy())
    StudyData.validate(MatcherSim.oaeiStudy())
    StudyData.validate(ExpertFilter.truncateStudy(MatcherSim.poStudy(), 30))
  }

  test("a confidence that is NaN or outside [0, 1] is rejected") {
    val id = study.decisions(4).matcherId
    for (c <- Seq(Double.NaN, -0.1, 1.01)) rejects(withDecision(4)(_.copy(conf = c)), id, "conf")
    val w = study.warmupDecisions(2)
    rejects(study.copy(warmupDecisions = study.warmupDecisions.updated(2, w.copy(conf = 2.0))),
      w.matcherId, "warm-up decision seq 2: conf")
  }

  test("a duplicate seq within a matcher is rejected") {
    val d = study.decisions(3)
    rejects(withDecision(4)(_.copy(seq = d.seq)), d.matcherId, s"seq ${d.seq} is duplicated")
  }

  test("a ts that decreases in seq order or is not finite is rejected") {
    val id = study.decisions(4).matcherId
    rejects(withDecision(4)(_.copy(ts = study.decisions(3).ts - 1.0)), id, "ts")
    for (t <- Seq(Double.NaN, Double.PositiveInfinity))
      rejects(withDecision(4)(_.copy(ts = t)), id, "is not finite")
  }

  test("an element index outside the task is rejected") {
    val id = study.decisions(4).matcherId
    rejects(withDecision(4)(_.copy(aIdx = study.task.nA)), id, "aIdx")
    rejects(withDecision(4)(_.copy(aIdx = -1)), id, "aIdx")
    rejects(withDecision(4)(_.copy(bIdx = study.task.nB)), id, "bIdx")
  }

  test("a mouse position outside the screen is rejected") {
    val id = study.mouse(7).matcherId
    rejects(withMouse(7)(_.copy(x = study.task.screenW + 1.0)), id, "x")
    rejects(withMouse(7)(_.copy(x = -1.0)), id, "x")
    rejects(withMouse(7)(_.copy(y = study.task.screenH + 1.0)), id, "y")
    rejects(withMouse(7)(_.copy(y = Double.NaN)), id, "y")
  }

  test("an unknown mouse kind is rejected") {
    rejects(withMouse(7)(_.copy(kind = "drag")), study.mouse(7).matcherId, "kind 'drag'")
  }
}
