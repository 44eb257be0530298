package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.synth.MatcherSim

/** The one spark-submit entry point: runs one paper table and prints it.
  *
  *   spark-submit --class repro.jobs.Run target/scala-2.13/repro_2.13-*.jar tableIIa
  *
  * Names: tableIIa, tableIIb, tableIII, tableIV (Tables IIa–IV),
  * expertFilter (Section IV-F, Figs. 10–11 as tables) and population
  * (Section IV-C, Figs. 8–9 as text).
  */
object Run {

  private val jobs: Vector[(String, SparkSession => Unit)] = Vector(
    "tableIIa" -> { (spark: SparkSession) =>
      val (rows, artifacts) = Experiments.tableIIa(spark, po(spark), NeuralFeatures.Config())
      println(Experiments.formatAccuracyTable("Table IIa: Schema Matching (PO), 5-fold CV", rows))
      println(Experiments.formatModelChoices(artifacts))
    },
    "tableIIb" -> { (spark: SparkSession) =>
      val oaei = new StudyHandle(spark, MatcherSim.oaeiStudy())
      val rows = Experiments.tableIIb(spark, po(spark), oaei, NeuralFeatures.Config())
      println(Experiments.formatAccuracyTable("Table IIb: Ontology Alignment (OAEI), PO-trained", rows))
    },
    "tableIII" -> { (spark: SparkSession) =>
      val (_, artifacts) = Experiments.tableIIa(spark, po(spark), NeuralFeatures.Config())
      println(Experiments.formatAccuracyTable(
        "Table III: MExI_50 feature-set ablation (PO)", Experiments.tableIII(artifacts)))
    },
    "tableIV" -> { (spark: SparkSession) =>
      val (_, artifacts) = Experiments.tableIIa(spark, po(spark), NeuralFeatures.Config())
      val top2 = Experiments.tableIV(artifacts)
      println("== Table IV: top-2 informative features (permutation importance) ==")
      for (s <- Vector("lrsm", "mou", "beh", "seq", "spa")) {
        val cells = Labels.Names.map(l => s"$l: ${top2((s, l)).mkString(", ")}")
        println(f"$s%-6s ${cells.mkString(" | ")}")
      }
    },
    "expertFilter" -> ((spark: SparkSession) => expertFilter(spark)),
    "population" -> ((spark: SparkSession) => println(population(po(spark)))),
  )

  val names: Vector[String] = jobs.map(_._1)

  /** The job named by the single argument, or the usage line listing the
    * valid names.
    */
  def select(args: Seq[String]): Either[String, (String, SparkSession => Unit)] =
    args match {
      case Seq(name) if names.contains(name) => Right(jobs(names.indexOf(name)))
      case _ => Left(s"usage: repro.jobs.Run <${names.mkString("|")}>")
    }

  def main(args: Array[String]): Unit = select(args.toSeq) match {
    case Left(usage) =>
      System.err.println(usage)
      sys.exit(2)
    case Right((name, run)) =>
      val builder = SparkSession.builder().appName(s"mexi-$name")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // The population report also runs without spark-submit.
      if (name == "population") builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      val spark = builder.getOrCreate()
      try run(spark) finally spark.stop()
  }

  private def po(spark: SparkSession) = new StudyHandle(spark, MatcherSim.poStudy())

  /** Section IV-F: expert filtering and fused-match quality, with full
    * histories and with early identification (first 30 decisions).
    */
  private def expertFilter(spark: SparkSession): Unit = {
    val cfg = NeuralFeatures.Config()
    val po = this.po(spark)
    val (_, artifacts) = Experiments.tableIIa(spark, po, cfg)
    val thresholds = artifacts.head.p50.thresholds

    val cvPred = artifacts.flatMap(_.fit50.predictions).toMap
    println(Experiments.formatUtilization(
      "Fig. 10: quality of selected matchers (full histories)",
      Experiments.utilization(spark, po, cvPred, thresholds)))

    val truncated = new StudyHandle(spark, ExpertFilter.truncateStudy(po.study, 30))
    val early = Experiments.earlyPredictions(spark, po, truncated, artifacts, cfg)
    println(Experiments.formatUtilization(
      "Fig. 11: quality of early-identified matchers (first 30 decisions)",
      Experiments.utilization(spark, po, early, thresholds)))
  }

  /** Section IV-C analog (Figures 8-9 as text): population marginals of
    * the simulated PO matchers — mean measures and the fraction of experts
    * per characteristic, to validate the simulator against the paper's
    * reported population statistics.
    */
  def population(po: StudyHandle): String = {
    val ms = po.measures.values.toVector
    val t = Thresholds.fromTrain(ms)
    val labels = ms.map(m => MatcherMeasures.labels(m, t))
    def mean(xs: Seq[Double]) = xs.sum / xs.size
    val sb = new StringBuilder
    sb.append("== Population characterization (paper Section IV-C) ==\n")
    sb.append(f"mean P     = ${mean(ms.map(_.precision))}%.2f   (paper: 0.55)\n")
    sb.append(f"mean R     = ${mean(ms.map(_.recall))}%.2f   (paper: 0.33)\n")
    sb.append(f"mean |Res| = ${mean(ms.map(m => math.abs(m.resolution)))}%.2f   (paper: 0.37 abs)\n")
    sb.append(f"mean Res+  = ${mean(ms.map(_.resolution).filter(_ > 0))}%.2f   (paper: 0.61 positives)\n")
    sb.append(f"mean |Cal| = ${mean(ms.map(m => math.abs(m.calibration)))}%.2f   (paper: 0.33)\n")
    sb.append(f"thresholds: dRes=${t.dRes}%.2f dCal=${t.dCal}%.2f\n")
    val names = Seq("precise", "thorough", "correlated", "calibrated")
    val paper = Seq(0.53, 0.15, 0.33, 0.42)
    for (l <- 0 until Labels.Count) {
      val frac = labels.count(_(l)).toDouble / labels.size
      sb.append(f"${names(l)}%-10s = $frac%.2f   (paper: ${paper(l)}%.2f)\n")
    }
    val allFour = labels.count(_.forall(identity)).toDouble / labels.size
    sb.append(f"all-four experts = $allFour%.2f (Fig. 9 darkest shade; must be > 0)\n")
    val thorough = labels.filter(_(Labels.Thorough))
    if (thorough.nonEmpty) {
      sb.append(s"of ${thorough.size} thorough: " +
        s"precise=${thorough.count(_(Labels.Precise))} " +
        s"correlated=${thorough.count(_(Labels.Correlated))} " +
        s"calibrated=${thorough.count(_(Labels.Calibrated))}\n")
      val thoroughCals = ms.filter(_.recall > t.dR).map(_.calibration)
      sb.append(f"thorough Cal: mean=${mean(thoroughCals)}%.3f " +
        f"min=${thoroughCals.min}%.3f max=${thoroughCals.max}%.3f (dCal=${t.dCal}%.3f)\n")
    }
    sb.toString
  }
}
