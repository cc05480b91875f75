package repro.exp

import org.apache.spark.sql.SparkSession

import repro.baselines.{Basso, RandomSubgraph, Spectral}
import repro.core._
import repro.data.Bipartite

/** Shared runner for the real-world evaluation grid (Tables 2–5).
  *
  * One invocation executes every (dataset, k, algorithm) cell once and
  * records relative Hamming gain, recall, wall-clock seconds and an
  * estimate of the algorithm's live state size; the per-table benches
  * (and `jobs/RunTables`) format different views of the same rows.
  *
  * Parameters follow Section 6.2, scaled as documented in DESIGN.md §4
  * (`Sofa.Config.forDataset`): `c_max = 20k` capped at `m/4`, sketch
  * counters `max(3·s, 0.05·n)` with `s = P99` of the left degrees, sofa
  * line search θ ∈ {0.3,…,0.7}, basso τ ∈ {0.4, 0.6} (paper: 4
  * values), RS sample m̃ = ñ = 300 (paper: 15000, i.e. the same 1/50
  * scale as the data).
  */
object RealWorldGrid {

  final case class Cell(
      dataset: String,
      k: Int,
      algo: String,
      gain: Double,
      recall: Double,
      seconds: Double,
      stateMB: Double,
      error: Option[String],
  ) {
    def ok: Boolean = error.isEmpty
  }

  final case class Config(datasets: Seq[String], ks: Seq[Int])

  // sofa's θ line search, basso's τ line search, RS's m̃ = ñ (see above).
  val Thetas: Seq[Double] = Seq(0.3, 0.4, 0.5, 0.6, 0.7)
  val Taus: Seq[Double] = Seq(0.4, 0.6)
  val RsSample: Int = 300

  val Algos: Seq[String] = Seq("sofa-auto", "sofa", "basso", "RSdhillon", "RSzhaEtAl")

  def run(cfg: Config)(implicit spark: SparkSession): Seq[Cell] = {
    cfg.datasets.flatMap { name => runDataset(name, cfg) }
  }

  def runDataset(name: String, cfg: Config)(implicit spark: SparkSession): Seq[Cell] = {
    val planted = Bipartite.surrogate(spark, name)
    val left = planted.left.cache()
    left.count() // materialize before timing anything
    val st = Bipartite.stats(left, planted.nRight)
    val cells = scala.collection.mutable.ArrayBuffer.empty[Cell]

    // ---------------- sofa + sofa-auto (per k) ----------------------
    cfg.ks.foreach { k =>
      val sofaCfg = Sofa.Config.forDataset(st, k)

      // sofa (full line search over thetas)
      cells += timed(name, k, "sofa") { () =>
        val centers = SofaDistributed.firstPass(left, sofaCfg)
        val best = SofaDistributed.bmfFromCenters(left, centers, k, Thetas)
          .map(_.quality).maxBy(_.relativeHammingGain)
        (best, StateSize.sofa(centers))
      }

      // sofa-auto (heuristic θ, no line search)
      cells += timed(name, k, "sofa-auto") { () =>
        val centers = SofaDistributed.firstPass(left, sofaCfg)
        val theta = ThetaHeuristic.selectFromCenters(centers, planted.nRight)
        val q = SofaDistributed.bmfFromCenters(left, centers, k, Seq(theta)).head.quality
        (q, StateSize.sofa(centers))
      }

      // RSdhillon / RSzhaEtAl
      val rsCfg = RandomSubgraph.Config(RsSample, RsSample)
      Seq(
        "RSdhillon" -> (Spectral.dhillon(_: Array[SparseVec], _: Int, _: Int)),
        "RSzhaEtAl" -> (Spectral.zha(_: Array[SparseVec], _: Int, _: Int)),
      ).foreach { case (algoName, algo) =>
        cells += timed(name, k, algoName) { () =>
          val run = RandomSubgraph.rightClusters(left, k, rsCfg, algo)
          val q = SecondPass.coverQuality(left, Seq(run.rightClusters)).head
          (q, StateSize.randomSubgraph(run, st))
        }
      }
    }

    // ---------------- basso (one fit for every τ, evaluate prefixes) -
    // A cell's seconds are the whole τ search's (the shared fit plus
    // each τ's evaluation) divided by |τ|: the average per τ.
    try {
      val t0 = System.nanoTime()
      val models = Basso.fit(left, st, Basso.Config(cfg.ks.max, Taus))
      val fitSec = (System.nanoTime() - t0) / 1e9
      cfg.ks.foreach { k =>
        val evals = models.map { model =>
          val t0 = System.nanoTime()
          (model, model.evaluate(k)._3, (System.nanoTime() - t0) / 1e9)
        }
        val (best, q, _) = evals.maxBy(_._2.relativeHammingGain)
        cells += Cell(name, k, "basso", q.relativeHammingGain, q.recall,
          (fitSec + evals.map(_._3).sum) / models.length,
          StateSize.basso(best, st), error = None)
      }
      // Release the transposed rows Basso cached, never `left` itself.
      models.headOption.foreach(m => if (m.rows ne left) m.rows.unpersist())
    } catch {
      case scala.util.control.NonFatal(e) =>
        // Running out of memory is the paper's expected outcome on its
        // largest dataset; it is a failed cell like any other failure.
        cfg.ks.foreach { k =>
          cells += Cell(name, k, "basso", Double.NaN, Double.NaN, Double.NaN,
            Double.NaN, error = Some(e.toString))
        }
    }

    left.unpersist()
    cells.toSeq
  }

  private def timed(dataset: String, k: Int, algo: String)(
      body: () => (Metrics.BmfQuality, Double)): Cell = {
    val t0 = System.nanoTime()
    try {
      val (q, stateMB) = body()
      val sec = (System.nanoTime() - t0) / 1e9
      Cell(dataset, k, algo, q.relativeHammingGain, q.recall, sec, stateMB, error = None)
    } catch {
      case scala.util.control.NonFatal(e) =>
        // One broken cell must not sink a multi-hour grid; the bench
        // suites assert on `ok` and will fail loudly with context.
        Cell(dataset, k, algo, Double.NaN, Double.NaN, Double.NaN, Double.NaN, error = Some(e.toString))
    }
  }
}

/** Rough live-state accounting in MB for Table 5. These are estimates
  * of the data each algorithm must hold (DESIGN.md §4): absolute RSS is
  * runtime-dependent, but the *ratios* — sofa ≪ RS/basso — are the
  * reproduced claim.
  */
object StateSize {
  private def mb(bytes: Long): Double = bytes.toDouble / (1024.0 * 1024.0)

  /** Centers: index arrays (4 B/entry) + sketch counters (12 B/entry).
    * 12 B per counter is `MisraGries`'s layout: an `Int` item and a `Long` counter.
    */
  def sofa(centers: Seq[Sofa.Center]): Double =
    mb(centers.map(c => 4L * c.vec.nnz + 12L * c.mg.size + 32L).sum)

  /** Dense association matrix (4 B/cell) + the cached full matrix. */
  def basso(model: Basso.Model, st: Bipartite.DatasetStats): Double =
    mb(4L * model.assocCells + 4L * st.edges +
      model.basis.map(4L * _.nnz).sum)

  /** Densified sampled subgraph (what the spectral methods operate on)
    * + the sampled edge lists + the output clusters.
    */
  def randomSubgraph(run: RandomSubgraph.Run, st: Bipartite.DatasetStats): Double = {
    val dense = 8L * run.sampledRows.toLong * run.retainedCols
    val sampleEdges = 4L * run.sampledRows.toLong * math.max(1.0, st.avgDeg).toLong
    mb(dense + sampleEdges + run.rightClusters.map(4L * _.nnz).sum)
  }
}
