package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler._

/** In-memory span tracer for one benchmark run.
  *
  * A span is a named interval on the calling thread with a parent, opened
  * by the benchmark around one call into a program layer. While a span is
  * open its id is a Spark local property, so every job the call submits
  * carries the id of the innermost open span; a `SparkListener` records
  * each job's interval and shuffle bytes under that id. Spans and jobs stay
  * in memory and are reduced once, after the run, by `report`.
  *
  * With tracing off (`Tracer.off`) `span` only runs its body: no listener,
  * no local property, no clock reads.
  */
final class Tracer private (sc: Option[SparkContext]) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil
  private val listener = sc.map(_ => new JobListener)
  for (c <- sc; l <- listener) c.addSparkListener(l)

  def span[T](name: String)(body: => T): T = sc match {
    case None => body
    case Some(ctx) =>
      val s = new Span(spans.size, name, open.headOption.map(_.id).getOrElse(-1))
      spans += s
      open = s :: open
      ctx.setLocalProperty(SpanProperty, s.id.toString)
      s.startNs = System.nanoTime(); s.startCpuNs = processCpuNs()
      try body
      finally {
        s.endNs = System.nanoTime(); s.endCpuNs = processCpuNs()
        open = open.tail
        ctx.setLocalProperty(SpanProperty, open.headOption.map(_.id.toString).orNull)
      }
  }

  /** Reduces spans and jobs into per-span totals. Drains the listener bus
    * first so every job the spans submitted has been counted.
    */
  def report(): Report = {
    for (c <- sc) PerfbenchBus.drain(c)
    val jobs = listener.map(_.jobs.values.asScala.toVector).getOrElse(Vector.empty)
    val jobsBySpan = jobs.groupBy(_.spanId)
    val children = spans.groupBy(_.parent)
    def subtree(id: Int): Vector[Int] =
      id +: children.getOrElse(id, Nil).toVector.flatMap(c => subtree(c.id))
    val totals = spans.toVector.map { s =>
      val js = subtree(s.id).flatMap(jobsBySpan.getOrElse(_, Vector.empty))
      val kids = children.getOrElse(s.id, Nil)
      SpanTotals(s.id, s.name, s.parent,
        ms = (s.endNs - s.startNs) / 1e6,
        selfMs = (s.endNs - s.startNs - kids.map(k => k.endNs - k.startNs).sum) / 1e6,
        cpuMs = (s.endCpuNs - s.startCpuNs) / 1e6,
        sparkJobs = js.size,
        sparkMs = unionMs(js.map(j => (j.startMs, j.endMs))),
        shuffleKb = js.map(_.shuffleBytes.get).sum / 1024.0)
    }
    Report(totals)
  }
}

object Tracer {
  val SpanProperty = "repro.perfbench.span"

  def off: Tracer = new Tracer(None)
  def on(sc: SparkContext): Tracer = new Tracer(Some(sc))

  private val osBean = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  def processCpuNs(): Long = osBean.getProcessCpuTime

  private final class Span(val id: Int, val name: String, val parent: Int) {
    var startNs = 0L; var endNs = 0L; var startCpuNs = 0L; var endCpuNs = 0L
  }

  final case class SpanTotals(id: Int, name: String, parent: Int, ms: Double, selfMs: Double,
                              cpuMs: Double, sparkJobs: Int, sparkMs: Double, shuffleKb: Double)

  final case class Report(spans: Vector[SpanTotals]) {
    def childrenOf(id: Int): Vector[SpanTotals] = spans.filter(_.parent == id)
  }

  /** Length of the union of [start, end] intervals, in ms. */
  def unionMs(intervals: Seq[(Long, Long)]): Double = {
    var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total.toDouble
  }

  private final class Job(val spanId: Int, val startMs: Long) {
    @volatile var endMs: Long = startMs
    val shuffleBytes = new java.util.concurrent.atomic.AtomicLong(0L)
  }

  /** Records every job's span id, interval and shuffle-write bytes. */
  private final class JobListener extends SparkListener {
    val jobs = new ConcurrentHashMap[Int, Job]()
    private val jobOfStage = new ConcurrentHashMap[Int, Job]()

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty)))
        .map(_.toInt).getOrElse(-1)
      val job = new Job(span, e.time)
      jobs.put(e.jobId, job)
      e.stageIds.foreach(st => jobOfStage.put(st, job))
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit =
      Option(jobs.get(e.jobId)).foreach(_.endMs = e.time)

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      for (m <- Option(e.taskMetrics); j <- Option(jobOfStage.get(e.stageId)))
        j.shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
  }
}
