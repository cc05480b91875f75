package org.apache.spark

/** In Spark's package only to reach the listener bus, which is
  * `private[spark]`: a test that counts events must see every event of
  * its calls before it reads the count.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
