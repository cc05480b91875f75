package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{GreedyCover, LeftAssignment, LeftVertex, Metrics, SecondPass, SparseVec}
import repro.data.Bipartite

/** Signals that the dense association matrix would not fit the memory
  * budget — reproduces the paper's basso out-of-memory on Wiki.
  */
final class BassoOutOfMemory(msg: String) extends RuntimeException(msg)

/** basso — the Asso algorithm of Miettinen et al. (TKDE'08), the static
  * BMF baseline of Section 6.2.
  *
  * 1. Build the dense column-association matrix
  *    `assoc(i)(j) = |{rows containing both i and j}|` (Spark
  *    per-partition dense accumulation + array reduce).
  * 2. Candidate basis vectors: `B_i = { j : assoc(i,j) ≥ τ·n_i }`.
  * 3. Greedily pick `k` basis vectors maximizing the cover gain
  *    `Σ_rows max(0, score(B | Γ(u), Y_u))` (the score of Section 4.2,
  *    read from sofa's [[GreedyCover]] counters), with each row's
  *    covered set `Y_u` replayed from the previously chosen basis in
  *    order.
  *
  * The matrix is flipped so the *smaller* side provides the columns
  * (the paper flips when |U| > |V| for the same reason: the quadratic
  * dimension must be the small one). If the dense association matrix
  * exceeds `maxAssocCells`, a [[BassoOutOfMemory]] is thrown.
  *
  * Because Asso is greedy, the basis for `k' < k` is a prefix of the
  * basis for `k`; [[Model.evaluate]] evaluates any prefix, so one `fit`
  * serves all k values of the evaluation grid. The association counts
  * do not depend on τ either, so one `fit` also serves every τ of the
  * line search: it returns one [[Model]] per τ, all on the same rows.
  */
object Basso {

  final case class Config(
      kMax: Int,
      taus: Seq[Double],
      maxAssocCells: Long = 100_000_000L,
  )

  final class Model(
      val rows: Dataset[LeftVertex],
      val nCols: Int,
      val basis: Array[SparseVec],
      val flipped: Boolean,
      val assocCells: Long,
  ) {
    /** Evaluate the first `kPrefix` basis vectors: per-row usage (the Asso
      * rule of `use`), lazily, and reconstruction quality, in one job
      * that applies the same rule to one [[GreedyCover]] of the prefix.
      */
    def evaluate(kPrefix: Int)(implicit spark: SparkSession): (Array[SparseVec], Dataset[LeftAssignment], Metrics.BmfQuality) = {
      import spark.implicits._
      val prefix = basis.take(kPrefix)
      val order = prefix.indices.toArray
      val bc = spark.sparkContext.broadcast(Array(prefix))
      val assign = rows.mapPartitions { it =>
        val cover = new GreedyCover(bc.value.head)
        it.map { lv => use(cover, lv.vec, order); LeftAssignment(lv.u, cover.result.picks) }
      }
      val q = SecondPass.sumCovers(rows, bc, _ => 3) { (acc, cover, g) =>
        use(cover, g, order)
        val r = cover.result
        acc(0) += r.truePositives; acc(1) += r.coverSize; acc(2) += g.nnz
      }.head
      (prefix, assign, Metrics.BmfQuality(q(0), q(1), q(2)))
    }
  }

  /** Fit every τ of `cfg` on the (auto-flipped) matrix, one [[Model]]
    * per τ in `cfg.taus` order. `left` is the original stream and `st`
    * its statistics, of which only the side sizes `mU` and `nV` are read.
    * Only the transposed rows are built here, so only they are cached
    * (they are every model's `rows` when `flipped`); `left` is read as
    * the caller left it.
    */
  def fit(
      left: Dataset[LeftVertex],
      st: Bipartite.DatasetStats,
      cfg: Config,
  )(implicit spark: SparkSession): Seq[Model] = {
    val flip = st.nV > st.mU
    val nCols = (if (flip) st.mU else st.nV).toInt
    requireBudget(nCols, cfg) // before anything is cached
    val rows = if (flip) transpose(left).cache() else left
    fitOriented(rows, nCols, cfg, flip)
  }

  /** Fit every τ of `cfg` on `rows` as given, one [[Model]] per τ. The
    * rows are read once for the association counts, which every τ
    * shares, and once per greedy round of each τ, so a caller with
    * costly rows caches them; this does not.
    */
  def fitOriented(
      rows: Dataset[LeftVertex],
      nCols: Int,
      cfg: Config,
      flipped: Boolean,
  )(implicit spark: SparkSession): Seq[Model] = {
    import spark.implicits._
    val cells = requireBudget(nCols, cfg)
    // Dense association counts, accumulated per partition then summed.
    // Few, fat partitions: each partial is an n² Int array, so keep the
    // partial count low to stay within the driver result-size budget.
    val n = nCols
    val assoc: Array[Int] = rows
      .coalesce(8)
      .mapPartitions { it =>
        val acc = new Array[Int](n * n)
        it.foreach { lv =>
          val idx = lv.nbrs
          var a = 0
          while (a < idx.length) {
            val base = idx(a) * n
            var b = 0
            while (b < idx.length) { acc(base + idx(b)) += 1; b += 1 }
            a += 1
          }
        }
        Iterator.single(acc)
      }
      .reduce { (x, y) =>
        var i = 0
        while (i < x.length) { x(i) += y(i); i += 1 }
        x
      }

    cfg.taus.map { tau =>
      // τ-thresholded candidates (one per column with support).
      val candidates: Array[SparseVec] = (0 until n).filter(i => assoc(i * n + i) > 0).map { i =>
        val cut = tau * assoc(i * n + i)
        SparseVec.fromArray((0 until n).filter(j => assoc(i * n + j) >= cut).toArray)
      }.toArray

      // Greedy basis selection: each round replays every row's usage of
      // the chosen candidates on one cover of all candidates, sums each
      // candidate's positive gains and picks the unused candidate with
      // the largest sum, the lowest index on ties.
      val chosen = scala.collection.mutable.ArrayBuffer.empty[Int]
      val bcCand = spark.sparkContext.broadcast(Array(candidates))
      var stop = candidates.isEmpty
      while (chosen.length < cfg.kMax && !stop) {
        val order = chosen.toArray
        val gains = SecondPass.sumCovers(rows, bcCand, _.length) { (acc, cover, g) =>
          use(cover, g, order)
          cover.foreachGain((c, s) => acc(c) += s)
        }.head
        val best = gains.indices.filterNot(chosen.contains).maxByOption(gains(_)).filter(gains(_) > 0)
        best.foreach(chosen += _)
        stop = best.isEmpty
      }
      bcCand.destroy()
      new Model(rows, nCols, chosen.map(candidates).toArray, flipped, cells)
    }
  }

  /** The dense association matrix's cell count, or a
    * [[BassoOutOfMemory]] when it exceeds the budget.
    */
  private def requireBudget(nCols: Int, cfg: Config): Long = {
    val cells = nCols.toLong * nCols.toLong
    if (cells > cfg.maxAssocCells)
      throw new BassoOutOfMemory(
        s"dense association matrix needs $cells cells > budget ${cfg.maxAssocCells} " +
          "(the paper's basso likewise ran out of memory on its largest dataset)")
    cells
  }

  /** Asso usage rule on `cover`: start covering `g`, then walk `order`
    * (indices of the cover's clusters, in chosen order) and take each
    * one whose score is positive given the cover built so far.
    */
  private[baselines] def use(cover: GreedyCover, g: SparseVec, order: Array[Int]): Unit = {
    cover.start(g)
    var t = 0
    while (t < order.length) { if (cover.gain(order(t)) > 0) cover.take(order(t)); t += 1 }
  }

  /** Transpose the bipartite stream: rows become right vertices with
    * their incident left ids as neighbor indices, coalesced from the
    * shuffle's partitions to [[Bipartite.Slices]]. Right vertices with
    * no edges are dropped (they carry no information for BMF).
    */
  def transpose(left: Dataset[LeftVertex])(implicit spark: SparkSession): Dataset[LeftVertex] = {
    import spark.implicits._
    left
      .flatMap(lv => lv.nbrs.map(v => (v, lv.u.toInt)))
      .groupByKey(_._1)
      .mapGroups { (v, it) =>
        LeftVertex(v.toLong, it.map(_._2).toArray.sorted)
      }
      .coalesce(Bipartite.Slices)
  }
}
