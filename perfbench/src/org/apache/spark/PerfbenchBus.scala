package org.apache.spark

/** Lives in Spark's package only to reach the listener bus, which is
  * `private[spark]`: the tracer must see every task and job event of a
  * span before it reads the span's counters.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
