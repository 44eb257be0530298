package repro

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Counts the Spark jobs a block of driver code submits. */
object SparkJobCounter {

  private val MarkerKey = "repro.jobCounter.marker"

  /** Runs `body` and returns its result with the number of Spark jobs
    * started while it ran. Listener events arrive asynchronously and in
    * order, so a one-task marker job before and after `body` fences the
    * count.
    */
  def count[T](spark: SparkSession)(body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val started = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        started.add(Option(e.properties).flatMap(p => Option(p.getProperty(MarkerKey))).getOrElse(""))
    }
    def marker(tag: String): Unit = {
      sc.setLocalProperty(MarkerKey, tag)
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(MarkerKey, null)
      val deadline = System.nanoTime() + 60L * 1000 * 1000 * 1000
      while (!started.contains(tag)) {
        require(System.nanoTime() < deadline, s"listener never saw the $tag marker job")
        Thread.sleep(10)
      }
    }
    sc.addSparkListener(listener)
    try {
      marker("before")
      val result = body
      marker("after")
      val tags = started.asScala.toVector
      (result, tags.indexOf("after") - tags.indexOf("before") - 1)
    } finally sc.removeSparkListener(listener)
  }
}
