package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import repro.core.{Experiments, NeuralFeatures}

/** Benchmark harness: one JVM, one workload, a closed loop of items.
  *
  * The run sets the workload up once, runs its untimed warm-up, then runs
  * ceil(seconds / nominal item seconds) items one after another (or
  * `--items`). `setup_s` is the time from JVM start to the start of the
  * first timed item. Only the items are timed; each item's output check and
  * the heap probe between items are outside the timed region. The result, with every
  * item's digest and the environment, goes to the `--out` file as JSON;
  * `perfbench/run.py` compares digests and prints the metrics.
  */
object Main {

  final case class Opts(
      workload: String = "",
      seed: Long = 42L,
      seconds: Double = 10.0,
      trace: Boolean = false,
      out: String = "",
      matchers: Int = 106,
      capSeconds: Double = 150.0,
      items: Int = 0,
      verify: Boolean = false,
  )

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case Nil => o
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, o.copy(trace = v == "1"))
    case "--out" :: v :: rest => parse(rest, o.copy(out = v))
    case "--matchers" :: v :: rest => parse(rest, o.copy(matchers = v.toInt))
    case "--cap-seconds" :: v :: rest => parse(rest, o.copy(capSeconds = v.toDouble))
    case "--items" :: v :: rest => parse(rest, o.copy(items = v.toInt))
    case "--verify" :: rest => parse(rest, o.copy(verify = true))
    case other :: _ => throw new IllegalArgumentException(s"unknown argument $other")
  }

  /** The neural config of every run. The tables use 12 LSTM and 10 CNN
    * epochs; a Table IIa fold then takes about a minute, which does not fit
    * the run budget, so the benchmark trains one epoch of each. The work per
    * epoch is the tables'.
    */
  val Cfg: NeuralFeatures.Config = NeuralFeatures.Config(lstmEpochs = 1, cnnEpochs = 1)

  /** The session config of the paper tables (`SparkSpec.shared`), on every
    * CPU the process may use.
    */
  def session(): SparkSession = {
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Collection time of every garbage collector so far, in ms. */
  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** JIT compilation time so far, in ms. */
  private def jitMs(): Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** Heap in use right after a full collection, in MB. */
  private def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def log(msg: String): Unit = println(s"[perfbench] $msg")

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList)
    require(Workloads.Names.contains(o.workload), s"--workload must be one of ${Workloads.Names.mkString(", ")}")
    require(o.out.nonEmpty, "--out is required")
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = session()
    try run(o, spark, jvmStartMs)
    finally spark.stop()
  }

  private def run(o: Opts, spark: SparkSession, jvmStartMs: Long): Unit = {
    def sinceStart: Double = (System.currentTimeMillis() - jvmStartMs) / 1000.0
    val sparkReadyS = sinceStart
    val tracer = if (o.trace) Tracer.on(spark.sparkContext) else Tracer.off
    val ctx = Ctx(spark, tracer, o.seed, Cfg, o.matchers)
    val wl = Workloads(o.workload, ctx)

    val setupT = System.nanoTime()
    tracer.span("setup")(wl.setup())
    val setupS = (System.nanoTime() - setupT) / 1e9
    log(f"setup: $setupS%.3f s")
    val warmT = System.nanoTime()
    tracer.span("warmup")(wl.warmUp())
    val warmUpS = (System.nanoTime() - warmT) / 1e9
    log(f"warm-up: $warmUpS%.3f s")
    var heapMb = liveHeapMb()
    val firstItemS = sinceStart

    val planned =
      if (o.items > 0) o.items else math.max(1, math.ceil(o.seconds / wl.nominalItemSeconds).toInt)
    val items = Vector.newBuilder[Map[String, Any]]
    val itemTimes = Vector.newBuilder[Double]
    var i = 0
    var stop = false
    while (i < planned && !stop) {
      val gc0 = gcMs(); val jit0 = jitMs()
      val t = System.nanoTime()
      val outcome = try Right(tracer.span("item")(wl.item(i))) catch { case NonFatal(e) => Left(e.toString) }
      val s = (System.nanoTime() - t) / 1e9
      val jvm = Map("jvm.gc_ms" -> (gcMs() - gc0).toDouble, "jvm.jit_ms" -> (jitMs() - jit0).toDouble)
      itemTimes += s
      val checked = outcome.flatMap(checkFn =>
        try Right(checkFn()) catch { case NonFatal(e) => Left(s"check: $e") })
      val c = checked.getOrElse(ItemCheck("", Vector.empty, Map.empty))
      val rec = Map("index" -> i, "cycle" -> i % Workloads.Cycle, "seconds" -> s, "digest" -> c.digest,
        "violations" -> c.violations, "counts" -> (c.counts ++ jvm), "error" -> checked.left.toOption)
      items += rec
      log(f"item $i (cycle ${i % Workloads.Cycle}): $s%.3f s gc ${jvm("jvm.gc_ms")}%.0f ms " +
        f"jit ${jvm("jvm.jit_ms")}%.0f ms digest=${c.digest}" + checked.left.toOption.map(e => s" ERROR $e").getOrElse(""))
      heapMb = math.max(heapMb, liveHeapMb())
      i += 1
      // Keep the whole run inside the harness's time limit.
      if (sinceStart + s > o.capSeconds) stop = true
    }
    val times = itemTimes.result()
    val verify = if (o.verify) Some(verifyTrainFold(o, ctx)) else None
    wl.release()

    val itemRecs = items.result()
    val runS = times.sum
    val report = if (o.trace) Some(tracer.report()) else None
    val metrics = Map[String, (Double, String)](
      "setup_s" -> (firstItemS, "s"),
      "run_s" -> (runS, "s"),
      "item_s" -> (median(times), "s"),
      "live_heap_mb" -> (heapMb, "MB"),
      "items" -> (times.size.toDouble, "count"),
    ) ++ report.map(traceMetrics(_, itemRecs, runS)).getOrElse(Map.empty)

    val env = Map(
      "java_version" -> System.getProperty("java.version"),
      "java_vm" -> System.getProperty("java.vm.name"),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024.0 * 1024.0),
      "spark_version" -> spark.version,
      "spark_master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "matchers" -> o.matchers,
      "nn_config" -> Map("lstm_epochs" -> Cfg.lstmEpochs, "lstm_hidden" -> Cfg.lstmHidden,
        "cnn_epochs" -> Cfg.cnnEpochs, "cnn_filters" -> Cfg.cnnFilters),
      "spark_ready_s" -> sparkReadyS,
      "setup_phase_s" -> setupS,
      "warm_up_s" -> warmUpS,
      "seeds" -> (wl.seeds + ("workload" -> o.seed)),
    )
    val spans = report.map(_.spans.map(s => Map(
      "id" -> s.id, "name" -> s.name, "parent" -> s.parent, "ms" -> s.ms, "self_ms" -> s.selfMs,
      "cpu_ms" -> s.cpuMs, "spark_jobs" -> s.sparkJobs, "spark_ms" -> s.sparkMs,
      "shuffle_kb" -> s.shuffleKb)))
    val result = Map(
      "workload" -> o.workload, "seed" -> o.seed, "trace" -> o.trace,
      "planned_items" -> planned, "items" -> itemRecs,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
      "env" -> env, "verify" -> verify, "spans" -> spans)
    Files.write(Paths.get(o.out), Json(result).getBytes(StandardCharsets.UTF_8))
    log(f"wrote ${o.out} at $sinceStart%.1f s since JVM start")
  }

  /** Per-layer metrics of a traced run. A span's key is its name, prefixed
    * with `setup.` under the setup root; values are per item (per run for
    * setup spans). Work counts are per-item means.
    */
  private def traceMetrics(rep: Tracer.Report, items: Vector[Map[String, Any]], runS: Double)
      : Map[String, (Double, String)] = {
    val byId = rep.spans.map(s => s.id -> s).toMap
    def root(s: Tracer.SpanTotals): Tracer.SpanTotals =
      if (s.parent < 0) s else root(byId(s.parent))
    val roots = rep.spans.filter(_.parent < 0)
    val nRoots = roots.groupBy(_.name).view.mapValues(_.size.toDouble).toMap
    val layered = rep.spans.filter(s => s.parent >= 0 && root(s).name != "warmup").groupBy { s =>
      val r = root(s).name
      (r, if (r == "setup") s"setup.${s.name}" else s.name)
    }
    val spanMetrics = layered.toSeq.flatMap { case ((r, key), ss) =>
      val n = nRoots(r)
      Seq(
        s"$key.ms" -> (ss.map(_.ms).sum / n, "ms"),
        s"$key.cpu_ms" -> (ss.map(_.cpuMs).sum / n, "ms"),
        s"$key.spark_jobs" -> (ss.map(_.sparkJobs).sum / n, "count"),
        s"$key.spark_ms" -> (ss.map(_.sparkMs).sum / n, "ms"),
        s"$key.shuffle_kb" -> (ss.map(_.shuffleKb).sum / n, "KiB"),
      )
    }.toMap
    val itemRoots = roots.filter(_.name == "item")
    val covered = itemRoots.map(r => rep.childrenOf(r.id).map(_.ms).sum).sum
    val counts = items.flatMap(_("counts").asInstanceOf[Map[String, Double]]).groupBy(_._1)
      .map { case (k, vs) =>
        k -> (vs.map(_._2).sum / vs.size, if (k == "measured_ratio") "ratio" else if (k.endsWith("_ms")) "ms" else "count")
      }
    spanMetrics ++ counts ++ Map(
      "spark_jobs_per_item" -> (itemRoots.map(_.sparkJobs).sum.toDouble / math.max(1, itemRoots.size), "count"),
      "span_coverage" -> (if (itemRoots.isEmpty) 0.0 else covered / itemRoots.map(_.ms).sum, "ratio"),
      "traced_run_s" -> (runS, "s"),
    )
  }

  /** Recomputes fold 0 of the paper tables through `Experiments.computeFold`,
    * `baselineRows`, `tableIII` and `tableIV` with `Experiments.tableIIa`'s
    * seeds, and returns its digest, to compare with item 0 of seed 42.
    */
  private def verifyTrainFold(o: Opts, ctx: Ctx): Map[String, Any] = {
    require(o.workload == "train_fold", "--verify applies to train_fold")
    val po = Workloads.population(ctx.copy(tracer = Tracer.off), TrainFold.PopulationSeed)
    val (train, test) = Experiments.foldSplits(po.matcherIds, Workloads.Cycle, TrainFold.SplitSeed).head
    val a = Experiments.computeFold(ctx.spark, po, po, train, test, ctx.cfg, TrainFold.SplitSeed)
    val out = TrainFold.Outputs(a, Experiments.baselineRows(po, po, a, TrainFold.SplitSeed + 1000L),
      Experiments.tableIII(Vector(a)), Experiments.tableIV(Vector(a)))
    Workloads.unpersist(po)
    val d = Digest.sha256(TrainFold.canonical(out))
    log(s"verify: computeFold fold 0 digest=$d")
    log(TrainFold.canonical(out).trim)
    Map("fold" -> 0, "digest" -> d)
  }
}
