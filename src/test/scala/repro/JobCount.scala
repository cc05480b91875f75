package repro

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code starts, so tests can pin the
  * number of round trips of a call.
  */
object JobCount {

  /** `body`'s value and the number of jobs started while it ran. */
  def apply[A](spark: SparkSession)(body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val a = body
      ListenerBusDrain(sc)
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
