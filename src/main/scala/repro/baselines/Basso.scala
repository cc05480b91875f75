package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{LeftAssignment, LeftVertex, Metrics, PartitionJob, SecondPass, SparseVec}

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
  *    `Σ_rows max(0, score(B | Γ(u), Y_u))` (the same score as
  *    Section 4.2), with each row's covered set `Y_u` replayed from
  *    the previously chosen basis in order.
  *
  * The matrix is flipped so the *smaller* side provides the columns
  * (the paper flips when |U| > |V| for the same reason: the quadratic
  * dimension must be the small one). If the dense association matrix
  * exceeds `maxAssocCells`, a [[BassoOutOfMemory]] is thrown.
  *
  * Because Asso is greedy, the basis for `k' < k` is a prefix of the
  * basis for `k`; [[Model.evaluate]] evaluates any prefix, so one `fit`
  * serves all k values of the evaluation grid.
  */
object Basso {

  final case class Config(
      kMax: Int,
      tau: Double,
      maxAssocCells: Long = 100_000_000L,
  )

  final class Model(
      val rows: Dataset[LeftVertex],
      val nCols: Int,
      val basis: Array[SparseVec],
      val flipped: Boolean,
      val assocCells: Long,
  ) {
    /** Evaluate the first `kPrefix` basis vectors: per-row usage (Asso
      * rule: use basis t if its score is positive given the cover so
      * far, in chosen order), lazily, and reconstruction quality, in
      * one job that applies the same rule.
      */
    def evaluate(kPrefix: Int)(implicit spark: SparkSession): (Array[SparseVec], Dataset[LeftAssignment], Metrics.BmfQuality) = {
      import spark.implicits._
      val use = basis.take(kPrefix)
      val bc = spark.sparkContext.broadcast(use)
      val assign = rows.map(lv => LeftAssignment(lv.u, usageInOrder(lv.vec, bc.value)))
      val q = sumRows(rows, 3) { (acc, g) =>
        val cover = usedCover(g, bc.value)
        acc(0) += g.intersectSize(cover); acc(1) += cover.nnz; acc(2) += g.nnz
      }
      (use, assign, Metrics.BmfQuality(q(0), q(1), q(2)))
    }
  }

  /** Fit on the (auto-flipped) matrix. `left` is the original stream,
    * `nRight` the original number of right vertices. Only the
    * transposed rows are built here, so only they are cached (they are
    * the model's `rows` when `flipped`); `left` is read as the caller
    * left it.
    */
  def fit(
      left: Dataset[LeftVertex],
      nRight: Int,
      cfg: Config,
  )(implicit spark: SparkSession): Model = {
    val mU = left.count()
    val flip = nRight > mU
    val nCols = if (flip) mU.toInt else nRight
    requireBudget(nCols, cfg) // before anything is cached
    val rows = if (flip) transpose(left, nRight).cache() else left
    fitOriented(rows, nCols, cfg, flip)
  }

  /** Fit on `rows` as given. They are read once per greedy round, so a
    * caller with costly rows caches them; this does not.
    */
  def fitOriented(
      rows: Dataset[LeftVertex],
      nCols: Int,
      cfg: Config,
      flipped: Boolean,
  )(implicit spark: SparkSession): Model = {
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

    // τ-thresholded candidates (one per column with support).
    val candidates: Array[SparseVec] = (0 until n).flatMap { i =>
      val ni = assoc(i * n + i)
      if (ni <= 0) None
      else {
        val cut = cfg.tau * ni
        val members = (0 until n).filter(j => assoc(i * n + j) >= cut)
        Some(SparseVec.fromArray(members.toArray))
      }
    }.toArray

    // Greedy basis selection: each round picks the unused candidate with
    // the largest positive gain, the lowest index on ties.
    val chosen = scala.collection.mutable.ArrayBuffer.empty[Int]
    val bcCand = spark.sparkContext.broadcast(candidates)
    var stop = candidates.isEmpty
    while (chosen.length < cfg.kMax && !stop) {
      val bcChosen = spark.sparkContext.broadcast(chosen.map(candidates).toArray)
      val gains = sumRows(rows, candidates.length) { (g, row) =>
        val cand = bcCand.value
        // Replay this row's usage of the already-chosen basis.
        val y = usedCover(row, bcChosen.value)
        var c = 0
        while (c < cand.length) {
          val s = SecondPass.score(cand(c), row, y)
          if (s > 0) g(c) += s
          c += 1
        }
      }
      bcChosen.destroy()
      val best = gains.indices.filterNot(chosen.contains).maxByOption(gains(_)).filter(gains(_) > 0)
      best.foreach(chosen += _)
      stop = best.isEmpty
    }
    bcCand.destroy()
    new Model(rows, nCols, chosen.map(candidates).toArray, flipped, cells)
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

  /** One Spark job: folds every row into an array of `width` sums with
    * `add`; the partitions' arrays are summed on the driver.
    */
  private def sumRows(rows: Dataset[LeftVertex], width: Int)(
      add: (Array[Long], SparseVec) => Unit): Array[Long] =
    PartitionJob.run(rows.rdd) { it =>
      val acc = new Array[Long](width)
      it.foreach(lv => add(acc, lv.vec))
      acc
    }.foldLeft(new Array[Long](width)) { (x, y) => x.indices.foreach(i => x(i) += y(i)); x }

  /** The union of the basis vectors the Asso rule uses for row `g`. */
  private def usedCover(g: SparseVec, basis: Array[SparseVec]): SparseVec =
    usageInOrder(g, basis).foldLeft(SparseVec.empty)((y, t) => y.union(basis(t)))

  /** Asso usage rule: walk the basis in chosen order, use a vector iff
    * its score is positive given the cover built so far.
    */
  def usageInOrder(g: SparseVec, basis: Array[SparseVec]): Array[Int] = {
    val picked = scala.collection.mutable.ArrayBuffer.empty[Int]
    var y = SparseVec.empty
    var t = 0
    while (t < basis.length) {
      if (SecondPass.score(basis(t), g, y) > 0) {
        picked += t
        y = y.union(basis(t))
      }
      t += 1
    }
    picked.toArray
  }

  /** Transpose the bipartite stream: rows become right vertices with
    * their incident left ids as neighbor indices. Right vertices with
    * no edges are dropped (they carry no information for BMF).
    */
  def transpose(left: Dataset[LeftVertex], nRight: Int)(implicit spark: SparkSession): Dataset[LeftVertex] = {
    import spark.implicits._
    left
      .flatMap(lv => lv.nbrs.map(v => (v, lv.u.toInt)))
      .groupByKey(_._1)
      .mapGroups { (v, it) =>
        LeftVertex(v.toLong, it.map(_._2).toArray.sorted)
      }
  }
}
