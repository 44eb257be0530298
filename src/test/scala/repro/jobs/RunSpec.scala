package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class RunSpec extends AnyFunSuite {

  test("every table name selects its job") {
    assert(Run.names === Vector("tableIIa", "tableIIb", "tableIII", "tableIV", "expertFilter", "population"))
    Run.names.foreach(n => assert(Run.select(Seq(n)).map(_._1) === Right(n)))
  }

  test("an unknown or missing name gives the usage line with every valid name") {
    for (args <- Seq(Seq("tableV"), Seq.empty, Seq("tableIIa", "tableIIb"))) {
      val usage = Run.select(args).left.getOrElse(fail(s"$args was accepted"))
      Run.names.foreach(n => assert(usage.contains(n)))
    }
  }
}
