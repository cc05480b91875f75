package perfbench

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.exp.StateSize
import perfbench.Workloads._

/** The two kinds of run: timed (end-to-end metrics, tracing off) and
  * traced (per-layer metrics). Both check every output they produce.
  */
object Runner {

  final case class Metric(name: String, unit: String)

  /** Reported by every run with `--trace 0`. */
  val EndToEnd: Seq[Metric] = Seq(
    Metric("setup_s", "s"),
    Metric("run_s", "s"),
    Metric("gain", "ratio"),
    Metric("recall", "ratio"),
    Metric("state_mb", "MB"),
  )

  /** Reported by every run with `--trace 1`; 0 where a layer does not run. */
  val PerLayer: Seq[Metric] = Seq(
    Metric("first_pass.wall_s", "s"),
    Metric("first_pass.map_s", "s"),
    Metric("first_pass.merge_s", "s"),
    Metric("first_pass.task_busy_s", "s"),
    Metric("first_pass.task_skew", "ratio"),
    Metric("first_pass.result_bytes", "bytes"),
    Metric("first_pass.centers", "count"),
    Metric("first_pass.seq_s", "s"),
    Metric("first_pass.speedup_vs_seq", "ratio"),
    Metric("mg.compacted_centers", "count"),
    Metric("mg.lost_mass_frac", "ratio"),
    Metric("mg.max_error_frac", "ratio"),
    Metric("theta.wall_s", "s"),
    Metric("theta.value", "theta"),
    Metric("postprocess.wall_s", "s"),
    Metric("postprocess.candidates", "count"),
    Metric("postprocess.candidate_nnz_mean", "count"),
    Metric("cover_all.wall_s", "s"),
    Metric("cover_all.jobs", "count"),
    Metric("cover_all.task_busy_s", "s"),
    Metric("cover_all.shuffle_bytes", "bytes"),
    Metric("cover_all.pairs", "count"),
    Metric("quality.wall_s", "s"),
    Metric("quality.shuffle_bytes", "bytes"),
    Metric("quality.result_bytes", "bytes"),
    Metric("quality.picks_mean", "count"),
    Metric("stream.update_p50_s", "s"),
    Metric("stream.update_max_s", "s"),
    Metric("stream.read_p50_s", "s"),
    Metric("stream.state_centers", "count"),
    Metric("stream.ingest_vps", "1/s"),
    Metric("jvm.gc_s", "s"),
    Metric("jvm.task_gc_s", "s"),
    Metric("trace.run_s", "s"),
    Metric("trace.untraced_run_s", "s"),
    Metric("trace.overhead_s", "s"),
    Metric("trace.unattributed_s", "s"),
    Metric("trace.matches_entry_point", "bool"),
  )

  /** Set-ups per timed run; `setup_s` is their median. */
  val SetupReps = 5

  /** Untimed calls before timing. The first call of a JVM is cold;
    * the next few still run 5-15% slower while the JIT catches up,
    * which the median over the timed calls absorbs.
    */
  val WarmupCalls = 1

  final case class Result(
      attempted: Int,
      failed: Int,
      failures: Seq[String],
      metrics: ListMap[String, Double],
      details: ListMap[String, Any],
  )

  /** Calls attempted and failed. A call fails when it throws or when
    * any check of its output fails.
    */
  private final class Tally {
    var attempted = 0
    var failed = 0
    private var lastFailed = false
    val failures = ArrayBuffer.empty[String]

    def call(label: String)(problems: => Seq[String]): Unit = {
      attempted += 1
      lastFailed = false
      late(label, problems)
    }

    /** Checks of the last call's output that run after it. */
    def late(label: String, problems: Seq[String]): Unit = if (problems.nonEmpty) {
      failures ++= problems.map(p => s"$label: $p")
      if (!lastFailed) { failed += 1; lastFailed = true }
    }
  }

  // -------------------------------------------------------------------
  // Timed run
  // -------------------------------------------------------------------

  /** Set up `reps` times, keep the last input, and warm up on it. */
  private def prepare(w: Workload, seed: Long, reps: Int)(
      implicit spark: SparkSession): (Input, Seq[Double]) = {
    var in: Input = null
    val setups = (1 to reps).map { _ =>
      if (in != null) in.release()
      System.gc()
      val t0 = System.nanoTime()
      in = Workloads.setup(w, seed)
      secondsSince(t0)
    }
    log("set up")
    (1 to WarmupCalls).foreach(_ => Workloads.call(w, in))
    log("warmed up")
    (in, setups)
  }

  def timed(w: Workload, seed: Long, seconds: Double, corrupt: Boolean)(
      implicit spark: SparkSession): Result = {
    val (in, setups) = prepare(w, seed, SetupReps)
    val tally = new Tally
    val runs = ArrayBuffer.empty[Double]
    var first: Option[Any] = None
    var last: Option[Outcome] = None
    val start = System.nanoTime()
    while (runs.isEmpty || secondsSince(start) < seconds) {
      System.gc()
      val t0 = System.nanoTime()
      val out = attempt(tally, s"call ${tally.attempted + 1}")(Workloads.call(w, in))
      val dt = secondsSince(t0)
      out.foreach { o =>
        runs += dt
        tally.late(s"call ${tally.attempted}", cheapChecks(in, o) ++ sameAs(first, signature(o)))
        if (first.isEmpty) first = Some(signature(o))
        last = Some(o)
      }
      if (out.isEmpty && runs.isEmpty && secondsSince(start) >= seconds)
        sys.error(s"every call failed: ${tally.failures.mkString("; ")}")
    }
    log(s"timed ${runs.size} calls")
    val fin = finalChecks(in, last.get, corrupt)
    log("checked")
    tally.late(s"call ${tally.attempted} output", fin.problems)

    Result(tally.attempted, tally.failed, tally.failures.toSeq,
      ListMap(
        "setup_s" -> median(setups),
        "run_s" -> median(runs.toSeq),
        "gain" -> fin.quality.relativeHammingGain,
        "recall" -> fin.quality.recall,
        "state_mb" -> fin.stateMb,
      ),
      details(in) ++ ListMap(
        "setup_s_each" -> setups,
        "run_s_each" -> runs.toSeq,
        "quality" -> fin.quality.toString,
      ))
  }

  // -------------------------------------------------------------------
  // Traced run
  // -------------------------------------------------------------------

  def traced(w: Workload, seed: Long, seconds: Double, corrupt: Boolean)(
      implicit spark: SparkSession): Result = {
    val (in, _) = prepare(w, seed, 1)
    val tally = new Tally
    val untraced = ArrayBuffer.empty[Double]
    val reps = ArrayBuffer.empty[ListMap[String, Double]]
    var spansOut: Seq[ListMap[String, Any]] = Nil
    var last: Option[TracedCall] = None
    val start = System.nanoTime()
    while (reps.isEmpty || secondsSince(start) < seconds) {
      System.gc()
      val t0 = System.nanoTime()
      val plain = attempt(tally, s"call ${tally.attempted + 1}")(Workloads.call(w, in))
      val dt = secondsSince(t0)
      plain.foreach { o => untraced += dt; tally.late(s"call ${tally.attempted}", cheapChecks(in, o)) }

      System.gc()
      val tracer = new Tracer(spark)
      val gc0 = Tracer.gcSeconds()
      val tc = attempt(tally, s"call ${tally.attempted + 1}")(
        tracer.span("run")(Workloads.tracedCall(w, in, tracer)))
      val gcS = Tracer.gcSeconds() - gc0
      val spans = tracer.finish()
      tracer.close()
      tc.foreach { c =>
        tally.late(s"call ${tally.attempted}", cheapChecks(in, c.outcome))
        val matches = plain.forall(p => signature(p) == signature(c.outcome))
        reps += layerMetrics(in, c, spans, gcS, matches)
        val origin = spans.map(_._1.startNs).min
        spansOut = spans.map { case (s, work) =>
          ListMap("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
            "start_s" -> (s.startNs - origin) / 1e9, "end_s" -> (s.endNs - origin) / 1e9,
            "jobs" -> work.jobs, "tasks" -> work.tasks, "task_busy_s" -> work.taskBusyMs / 1e3)
        }
        last = Some(c)
      }
      if (reps.isEmpty && secondsSince(start) >= seconds)
        sys.error(s"every traced call failed: ${tally.failures.mkString("; ")}")
    }

    log(s"traced ${reps.size} calls")
    val seqS = sequentialFirstPass(in)
    val c = last.get
    val fin = finalChecks(in, c.outcome, corrupt)
    log("checked")
    tally.late(s"call ${tally.attempted} output", fin.problems)

    val med = ListMap(PerLayer.map(m => m.name -> median(reps.map(_.getOrElse(m.name, 0.0)).toSeq)): _*)
    val runS = med("trace.run_s")
    val untracedS = median(untraced.toSeq)
    val overhead = runS - untracedS
    // The top-level spans must account for the traced run: whatever
    // they miss may be no larger than the tracing overhead (at least 1%
    // of the run, which covers the noise in that difference).
    val gap = med("trace.unattributed_s")
    if (gap > math.max(overhead, 0.01 * runS))
      tally.late("trace", Seq(f"unattributed $gap%.4f s exceeds tracing overhead $overhead%.4f s"))

    val metrics = med ++ ListMap(
      "first_pass.seq_s" -> seqS,
      "first_pass.speedup_vs_seq" -> seqS / med("first_pass.wall_s"),
      "quality.picks_mean" -> fin.picksMean,
      "trace.untraced_run_s" -> untracedS,
      "trace.overhead_s" -> overhead,
    ) ++ mgCounters(c.centers)
    Result(tally.attempted, tally.failed, tally.failures.toSeq,
      ListMap(PerLayer.map(m => m.name -> metrics(m.name)): _*),
      details(in) ++ ListMap(
        "untraced_run_s_each" -> untraced.toSeq,
        "traced_run_s_each" -> reps.map(_("trace.run_s")).toSeq,
        "quality" -> fin.quality.toString,
        "spans" -> spansOut,
      ))
  }

  /** Per-layer numbers of one traced call, from its spans and the Spark
    * work attributed to them.
    */
  private def layerMetrics(
      in: Input,
      c: TracedCall,
      spans: Seq[(Tracer.Span, Tracer.SparkWork)],
      gcS: Double,
      matches: Boolean,
  ): ListMap[String, Double] = {
    def named(names: String*) = spans.filter(s => names.contains(s._1.name))
    def wall(names: String*) = named(names: _*).map(_._1.seconds).sum
    def sumWork(names: String*)(f: Tracer.SparkWork => Long) = named(names: _*).map(s => f(s._2)).sum.toDouble

    val firstPass = Seq("first_pass", "stream.update")
    val fpWall = wall(firstPass: _*)
    val fpMap = sumWork(firstPass: _*)(_.jobMs) / 1e3
    val taskMs = named(firstPass: _*).flatMap(_._2.taskRunMs)
    val skew =
      if (taskMs.isEmpty) 0.0
      else taskMs.max.toDouble / math.max(1.0, median(taskMs.map(_.toDouble)))
    val root = spans.find(_._1.name == "run").get._1
    val top = spans.filter(_._1.parent == root.id).map(_._1.seconds).sum
    val candidates = c.candidateCounts.sum
    val stream = c.outcome match {
      case s: Streamed => ListMap(
        "stream.update_p50_s" -> median(s.updateS),
        "stream.update_max_s" -> s.updateS.max,
        "stream.read_p50_s" -> median(s.readS),
        "stream.state_centers" -> s.state.centers.size.toDouble,
        "stream.ingest_vps" -> in.rows / s.updateS.sum,
      )
      case _ => ListMap.empty[String, Double]
    }
    val theta = c.outcome match {
      case Bmf(r) if named("theta").nonEmpty => r.theta
      case _ => 0.0
    }
    ListMap(
      "first_pass.wall_s" -> fpWall,
      "first_pass.map_s" -> fpMap,
      "first_pass.merge_s" -> (fpWall - fpMap),
      "first_pass.task_busy_s" -> sumWork(firstPass: _*)(_.taskBusyMs) / 1e3,
      "first_pass.task_skew" -> skew,
      "first_pass.result_bytes" -> sumWork(firstPass: _*)(_.resultBytes),
      "first_pass.centers" -> c.centers.size.toDouble,
      "theta.wall_s" -> wall("theta"),
      "theta.value" -> theta,
      "postprocess.wall_s" -> wall("postprocess"),
      "postprocess.candidates" -> candidates.toDouble,
      "postprocess.candidate_nnz_mean" ->
        (if (candidates == 0) 0.0 else c.candidateNnz.sum.toDouble / candidates),
      "cover_all.wall_s" -> wall("cover_all"),
      "cover_all.jobs" -> sumWork("cover_all")(_.jobs.toLong),
      "cover_all.task_busy_s" -> sumWork("cover_all")(_.taskBusyMs) / 1e3,
      "cover_all.shuffle_bytes" -> sumWork("cover_all")(_.shuffleWriteBytes),
      "cover_all.pairs" -> in.rows.toDouble * candidates,
      "quality.wall_s" -> wall("quality"),
      "quality.shuffle_bytes" -> sumWork("quality")(_.shuffleWriteBytes),
      "quality.result_bytes" -> sumWork("quality")(_.resultBytes),
      "jvm.gc_s" -> gcS,
      "jvm.task_gc_s" -> spans.map(_._2.taskGcMs).sum / 1e3,
      "trace.run_s" -> root.seconds,
      "trace.unattributed_s" -> (root.seconds - top),
      "trace.matches_entry_point" -> (if (matches) 1.0 else 0.0),
    ) ++ stream
  }

  /** Misra–Gries state of the first-pass centers, read through the
    * sketch's public counters; exact and deterministic.
    */
  private def mgCounters(centers: Seq[Sofa.Center]): ListMap[String, Double] = {
    val kept = centers.map(_.mg.entries.map(_._2).sum)
    val offered = centers.map(_.mg.totalWeight)
    val lost = kept.zip(offered).map { case (k, o) => o - k }
    ListMap(
      "mg.compacted_centers" -> lost.count(_ > 0).toDouble,
      "mg.lost_mass_frac" -> (if (offered.sum == 0) 0.0 else lost.sum.toDouble / offered.sum),
      "mg.max_error_frac" ->
        (if (centers.isEmpty) 0.0 else centers.map(c => c.mg.errorBound.toDouble / c.weight).max),
    )
  }

  /** One-thread `Sofa.cluster` over the whole collected stream: the
    * baseline the distributed first pass is compared against.
    */
  private def sequentialFirstPass(in: Input): Double = {
    val rows = in.left.collect()
    System.gc()
    val t0 = System.nanoTime()
    Sofa.cluster(rows.iterator.map(lv => Sofa.freshItem(lv.vec, in.cfg)), in.cfg)
    secondsSince(t0)
  }

  // -------------------------------------------------------------------
  // Checks
  // -------------------------------------------------------------------

  /** Checks cheap enough to run on every call. */
  private def cheapChecks(in: Input, o: Outcome): Seq[String] = o match {
    case Bmf(r) => Checks.quality(r.quality, in.stats.edges)
    case s: Streamed =>
      val seen = s.state.verticesSeen
      (if (seen == in.rows) Nil else Seq(s"verticesSeen $seen != |U| ${in.rows}")) ++
        Checks.centers(s.state.centers, in.rows, in.cfg.cMax)
  }

  /** What must repeat exactly from call to call. */
  private def signature(o: Outcome): Any = o match {
    case Bmf(r) => (r.theta, r.quality, r.rightClusters.toSeq)
    case s: Streamed => (s.state.verticesSeen, StateSize.sofa(s.state.centers), s.candidates.toSeq)
  }

  private def sameAs(first: Option[Any], sig: Any): Seq[String] =
    first.filter(_ != sig).map(_ => "output differs from the first call's").toSeq

  private final case class Final(
      quality: Metrics.BmfQuality,
      stateMb: Double,
      picksMean: Double,
      problems: Seq[String],
  )

  /** Checks of one call's full output, outside any timed interval.
    * BMF: the first pass is repeated for its centers. Stream: the
    * streamed candidates are scored by the second pass for gain and
    * recall. Both: the assignments are collected and the quality
    * recomputed on the driver.
    */
  private def finalChecks(in: Input, o: Outcome, corrupt: Boolean)(
      implicit spark: SparkSession): Final = {
    val (centers, result) = o match {
      case Bmf(r) => (SofaDistributed.firstPass(in.left, in.cfg), r)
      case s: Streamed =>
        if (s.candidates.isEmpty) sys.error("stream read returned no candidate clusters")
        val (kept, assign) = SecondPass.topKBmf(in.left, s.candidates, in.cfg.k)
        (s.state.centers, SofaDistributed.BmfResult(s.theta, kept, assign, Metrics.bmfQuality(in.left, assign, kept)))
    }
    val rows = in.left.collect()
    val collected = result.assignments.collect()
    val assign = if (corrupt) Checks.corrupt(rows, collected, result.rightClusters) else collected
    val problems = Checks.centers(centers, in.rows, in.cfg.cMax) ++
      Checks.quality(result.quality, in.stats.edges) ++
      Checks.assignments(rows, assign, result.rightClusters, result.quality)
    Final(result.quality, StateSize.sofa(centers),
      if (collected.isEmpty) 0.0 else collected.map(_.clusters.length).sum.toDouble / collected.length,
      problems)
  }

  // -------------------------------------------------------------------

  private def attempt[A](tally: Tally, label: String)(body: => A): Option[A] =
    try {
      val a = body
      tally.call(label)(Nil)
      Some(a)
    } catch {
      case NonFatal(e) =>
        tally.call(label)(Seq(s"threw $e"))
        None
    }

  private def details(in: Input)(implicit spark: SparkSession): ListMap[String, Any] = ListMap(
    "data_seed" -> in.dataSeed,
    "rows" -> in.rows,
    "n_right" -> in.nRight,
    "edges" -> in.stats.edges,
    "p99_deg" -> in.stats.p99Deg,
    "config" -> in.cfg.toString,
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
  )

  /** Progress on standard error, timed from JVM start. */
  def log(msg: String): Unit =
    Console.err.println(f"perfbench ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.1f s: $msg")

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }
}
