package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core._
import repro.data.Bipartite
import repro.stream.SofaStreamState

/** The benchmark's workloads: how each input is generated from the
  * seed, which public entry point a timed call makes, and the same
  * pipeline decomposed into its layer calls for the traced run.
  */
object Workloads {

  sealed trait Kind
  /** `sofa`: line search over several θ in one `bmfPipeline` call. */
  final case class LineSearch(thetas: Seq[Double]) extends Kind
  /** `sofa-auto`: heuristic θ in one `bmfAutoPipeline` call. */
  case object Auto extends Kind
  /** Streaming ingest: `update` per micro-batch, then one read at θ. */
  final case class Stream(batches: Int, readTheta: Double) extends Kind

  /** Where the rows come from: the first `rows` left vertices of a
    * Table-1 surrogate, generated at its own seed, or a small planted
    * graph.
    */
  sealed trait Source
  final case class Surrogate(name: String, rows: Int) extends Source
  final case class Planted(params: Bipartite.PlantedParams) extends Source

  final case class Workload(name: String, source: Source, k: Int, kind: Kind)

  val Thetas: Seq[Double] = Seq(0.3, 0.4, 0.5, 0.6, 0.7)

  val all: Seq[Workload] = Seq(
    Workload("movie-linesearch-k40", Surrogate("Movie", rows = 400), k = 40, LineSearch(Thetas)),
    Workload("wiki-auto-k40", Surrogate("Wiki", rows = 2000), k = 40, Auto),
    Workload("wiki-stream-k40", Surrogate("Wiki", rows = 1000), k = 40, Stream(batches = 16, readTheta = 0.5)),
    // Self-test of the benchmark on a tiny planted graph; not a listed workload.
    Workload("smoke-planted",
      Planted(Bipartite.PlantedParams(k = 4, ell = 40, n = 300, r = 20, p = 0.8, expectedNoiseDeg = 3.0)),
      k = 4, LineSearch(Thetas)),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** A generated, cached input and the config derived from it. */
  final case class Input(
      left: Dataset[LeftVertex],
      nRight: Int,
      stats: Bipartite.DatasetStats,
      cfg: Sofa.Config,
      batches: IndexedSeq[Dataset[LeftVertex]],
      dataSeed: Long,
  ) {
    def rows: Long = stats.mU
    def release(): Unit = left.unpersist(true)
  }

  /** Generate, cache and measure the input of `w` for benchmark seed
    * `seed`. A surrogate is always generated at its own seed; the
    * benchmark seed renames its vertices (see [[relabel]]). A planted
    * graph is generated at its seed plus the benchmark seed. This is
    * the work `setup_s` times.
    */
  def setup(w: Workload, seed: Long)(implicit spark: SparkSession): Input = {
    val (raw, nRight, dataSeed) = w.source match {
      case Surrogate(name, rows) =>
        val base = Bipartite.Surrogates(name)
        val spec = base.copy(paperU = rows.toLong * base.scale)
        (relabel(Bipartite.surrogate(spark, spec).left, spec.mU, spec.nV, seed), spec.nV, spec.seed)
      case Planted(pp) =>
        val p = pp.copy(seed = pp.seed + seed)
        val planted = Bipartite.planted(spark, p)
        (planted.left, planted.nRight, p.seed)
    }
    val left = raw.cache()
    left.count()
    val stats = Bipartite.stats(left, nRight)
    val batches = w.kind match {
      case Stream(n, _) => microBatches(left, n)
      case _ => IndexedSeq.empty
    }
    Input(left, nRight, stats, configFor(stats, w.k, nRight), batches, dataSeed)
  }

  /** The same graph with its left ids `[0, mU)` and right ids
    * `[0, nV)` renamed by permutations drawn from `seed`. The vertex
    * order is kept, so every output is the seed-0 output up to the
    * renaming: the seed changes the input's bytes (and hash layouts),
    * not the work. Different row samples give different work, and
    * their times and gains spread too widely to share a bound (see
    * perfbench/README.md).
    */
  private def relabel(left: Dataset[LeftVertex], mU: Int, nV: Int, seed: Long)(
      implicit spark: SparkSession): Dataset[LeftVertex] = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val us = spark.sparkContext.broadcast(rng.shuffle((0L until mU.toLong).toVector).toArray)
    val vs = spark.sparkContext.broadcast(rng.shuffle((0 until nV).toVector).toArray)
    left.map(lv => LeftVertex(us.value(lv.u.toInt), lv.nbrs.map(vs.value(_)).sorted))
  }

  /** `Sofa.Config` exactly as the Table 4 cell of `RealWorldGrid` derives it. */
  def configFor(st: Bipartite.DatasetStats, k: Int, nRight: Int): Sofa.Config = {
    val s = math.max(1, st.p99Deg)
    val counters = math.max(3 * s, (0.05 * nRight).toInt).max(8)
    val cMax = math.max(k + 1, math.min(20 * k, st.mU.toInt / 4))
    Sofa.Config(k = k, cMax = cMax, nRight = nRight, mgCapacity = counters)
  }

  /** `n` disjoint micro-batches in stream order, held on the driver as
    * local datasets; Spark splits each over the default parallelism.
    */
  private def microBatches(left: Dataset[LeftVertex], n: Int)(
      implicit spark: SparkSession): IndexedSeq[Dataset[LeftVertex]] = {
    import spark.implicits._
    val rows = left.collect()
    rows.grouped((rows.length + n - 1) / n).map(chunk => spark.createDataset(chunk.toSeq)).toIndexedSeq
  }

  // -------------------------------------------------------------------
  // One call of a workload
  // -------------------------------------------------------------------

  /** What one call returns, in the form the checks need. */
  sealed trait Outcome
  final case class Bmf(result: SofaDistributed.BmfResult) extends Outcome
  final case class Streamed(
      theta: Double,
      state: SofaStreamState,
      updateS: Seq[Double],
      readS: Seq[Double],
      candidates: Array[SparseVec],
  ) extends Outcome

  /** Timed call: only the highest public entry point of the workload. */
  def call(w: Workload, in: Input)(implicit spark: SparkSession): Outcome = w.kind match {
    case LineSearch(thetas) => Bmf(SofaDistributed.bmfPipeline(in.left, in.cfg, thetas).head)
    case Auto => Bmf(SofaDistributed.bmfAutoPipeline(in.left, in.cfg))
    case Stream(_, theta) => ingest(in, theta, None)
  }

  /** Fold every micro-batch into a fresh state, reading after each. */
  private def ingest(in: Input, theta: Double, tracer: Option[Tracer])(
      implicit spark: SparkSession): Streamed = {
    val state = new SofaStreamState(in.cfg)
    val updates = Seq.newBuilder[Double]
    val reads = Seq.newBuilder[Double]
    var candidates = Array.empty[SparseVec]
    in.batches.foreach { b =>
      val t0 = System.nanoTime()
      inSpan(tracer, "stream.update")(state.update(b))
      val t1 = System.nanoTime()
      candidates = inSpan(tracer, "stream.read")(state.candidateClusters(theta))
      val t2 = System.nanoTime()
      updates += (t1 - t0) / 1e9
      reads += (t2 - t1) / 1e9
    }
    Streamed(theta, state, updates.result(), reads.result(), candidates)
  }

  private def inSpan[A](tracer: Option[Tracer], name: String)(body: => A): A =
    tracer.fold(body)(_.span(name)(body))

  /** What the traced decomposition saw besides its outcome. */
  final case class TracedCall(
      outcome: Outcome,
      centers: IndexedSeq[Sofa.Center],
      candidateCounts: Seq[Int],
      candidateNnz: Seq[Long],
  )

  /** Traced call: the same pipeline as [[call]], made of its layer
    * calls one at a time in the entry point's order, each in a span.
    */
  def tracedCall(w: Workload, in: Input, t: Tracer)(implicit spark: SparkSession): TracedCall =
    w.kind match {
      case Stream(_, theta) =>
        val s = ingest(in, theta, Some(t))
        TracedCall(s, s.state.centers, Nil, Nil)
      case kind =>
        val centers = t.span("first_pass")(SofaDistributed.firstPass(in.left, in.cfg))
        val thetas = kind match {
          case LineSearch(ts) => ts
          case _ => Seq(t.span("theta")(ThetaHeuristic.selectFromCenters(centers, in.nRight)))
        }
        val counts = Seq.newBuilder[Int]
        val nnz = Seq.newBuilder[Long]
        val results = thetas.map { theta =>
          val cand = t.span("postprocess")(
            Sofa.postprocessPerCenter(centers, theta).filter(_.nnz > 0))
          counts += cand.length
          nnz += cand.map(_.nnz.toLong).sum
          if (cand.isEmpty) {
            SofaDistributed.BmfResult(theta, Array.empty,
              SecondPass.assignBicluster(in.left, Array(SparseVec.empty)),
              Metrics.BmfQuality(0L, 0L, in.stats.edges))
          } else {
            val (kept, assign) = t.span("cover_all")(SecondPass.topKBmf(in.left, cand, in.cfg.k))
            val q = t.span("quality")(Metrics.bmfQuality(in.left, assign, kept))
            SofaDistributed.BmfResult(theta, kept, assign, q)
          }
        }
        val best = results.sortBy(r => -r.quality.relativeHammingGain).head
        TracedCall(Bmf(best), centers, counts.result(), nnz.result())
    }
}
