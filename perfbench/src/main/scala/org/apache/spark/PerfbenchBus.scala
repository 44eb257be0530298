package org.apache.spark

/** The listener bus delivers events asynchronously; the tracer drains it
  * before reading its counters. `listenerBus` is `private[spark]`, hence
  * this one-method bridge in Spark's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext, timeoutMs: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
