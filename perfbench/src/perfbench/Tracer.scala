package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Spans recorded from outside the program, around each call into a
  * layer, plus the Spark work each span caused.
  *
  * A span's id is set as a Spark local property while it is open, so
  * every job the driver thread starts inside it carries the id; the
  * listener maps jobs to stages to tasks and sums their metrics per
  * span. Spans are kept in memory and written out with the report.
  */
final class Tracer(spark: SparkSession) {
  import Tracer._

  private val sc = spark.sparkContext
  private val listener = new SpanListener
  sc.addSparkListener(listener)

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  /** Run `body` inside a span named `name`, child of the open span. */
  def span[A](name: String)(body: => A): A = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    sc.setLocalProperty(SpanKey, id.toString)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      spans += Span(id, name, parent, t0, t1)
      open = open.tail
      sc.setLocalProperty(SpanKey, open.headOption.map(_.toString).orNull)
    }
  }

  /** Closed spans with their Spark counters, once all events arrived. */
  def finish(): Seq[(Span, SparkWork)] = {
    PerfbenchBus.drain(sc)
    spans.toSeq.map(s => s -> listener.work(s.id))
  }

  def close(): Unit = sc.removeSparkListener(listener)
}

object Tracer {
  val SpanKey = "perfbench.span"

  final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  /** Spark work attributed to one span. Times in ms as Spark reports them. */
  final case class SparkWork(
      jobs: Int,
      jobMs: Long,
      tasks: Int,
      taskRunMs: Seq[Long],
      taskGcMs: Long,
      resultBytes: Long,
      shuffleWriteBytes: Long,
  ) {
    def taskBusyMs: Long = taskRunMs.sum
  }

  /** Total collection time of every garbage collector in this JVM. In
    * local mode the executors run in the driver JVM, so this covers
    * task GC as well.
    */
  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3
}

private final class SpanListener extends SparkListener {
  import Tracer.SparkWork

  private final class Acc {
    var jobs = 0; var jobMs = 0L; var tasks = 0; var gcMs = 0L
    var resultBytes = 0L; var shuffleBytes = 0L
    val runMs = mutable.ArrayBuffer.empty[Long]
  }

  private val jobSpan = mutable.Map.empty[Int, Int]
  private val jobStart = mutable.Map.empty[Int, Long]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val acc = mutable.Map.empty[Int, Acc]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey))).foreach { s =>
      val span = s.toInt
      jobSpan(e.jobId) = span
      jobStart(e.jobId) = e.time
      e.stageIds.foreach(stageSpan(_) = span)
      acc.getOrElseUpdate(span, new Acc).jobs += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobSpan.get(e.jobId).foreach { span =>
      acc(span).jobMs += e.time - jobStart(e.jobId)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (span <- stageSpan.get(e.stageId); m <- Option(e.taskMetrics)) {
      val a = acc.getOrElseUpdate(span, new Acc)
      a.tasks += 1
      a.runMs += m.executorRunTime
      a.gcMs += m.jvmGCTime
      a.resultBytes += m.resultSize
      a.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def work(span: Int): SparkWork = synchronized {
    acc.get(span) match {
      case None => SparkWork(0, 0L, 0, Nil, 0L, 0L, 0L)
      case Some(a) => SparkWork(a.jobs, a.jobMs, a.tasks, a.runMs.toSeq, a.gcMs, a.resultBytes, a.shuffleBytes)
    }
  }
}
