package repro

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession

/** Counts the broadcasts a block of code creates, so tests can pin what
  * a call ships to the executors. Broadcast ids come from one counter
  * per `SparkContext`: the count is the ids issued between a probe
  * broadcast before and one after `body`, less the task binary Spark
  * broadcasts for every stage it submits.
  */
object BroadcastCount {

  /** `body`'s value and the number of broadcasts it created. */
  def apply[A](spark: SparkSession)(body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val stages = new AtomicInteger
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val before = probeId(sc)
      val a = body
      val after = probeId(sc)
      ListenerBusDrain(sc)
      (a, (after - before - 1).toInt - stages.get)
    } finally sc.removeSparkListener(listener)
  }

  private def probeId(sc: SparkContext): Long = {
    val b = sc.broadcast(0)
    try b.id finally b.destroy()
  }
}
