package repro.core

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}

/** A left-side vertex of the bipartite graph as it appears on the
  * stream: its id and the (sorted, distinct) indices of its right-side
  * neighbors. This is the row type of every streamed dataset in the
  * reproduction.
  */
final case class LeftVertex(u: Long, nbrs: Array[Int]) {

  /** The neighborhood as a vector. Rejects `nbrs` that are not
    * strictly increasing and non-negative, which every distance and
    * intersection downstream relies on.
    */
  def vec: SparseVec = {
    var i = 0
    while (i < nbrs.length) {
      val j = nbrs(i)
      require(j >= 0, s"left vertex $u: negative neighbor index $j")
      if (i > 0) {
        require(j != nbrs(i - 1), s"left vertex $u: duplicate neighbor index $j")
        require(j > nbrs(i - 1), s"left vertex $u: neighbors not sorted ($j after ${nbrs(i - 1)})")
      }
      i += 1
    }
    SparseVec.fromSortedDistinct(nbrs)
  }
}

/** A left vertex with its (possibly multiple) cluster memberships, as
  * produced by the second pass.
  */
final case class LeftAssignment(u: Long, clusters: Array[Int])

/** Column→cluster inverted index of a set of right clusters, in CSR
  * form: the clusters containing column `j` are
  * `members(start(j) until start(j + 1))`, in ascending order. Built
  * once per cluster set on the driver and broadcast to the second pass.
  * Columns at or past `cols` lie in no cluster.
  */
final class CoverIndex(val clusters: Array[SparseVec]) extends Serializable {
  require(clusters.forall(c => c.isEmpty || c.idx(0) >= 0), "cluster columns must be non-negative")

  def size: Int = clusters.length

  private[core] val cols: Int =
    clusters.foldLeft(0)((m, c) => if (c.isEmpty) m else math.max(m, c.idx.last + 1))

  private[core] val start: Array[Int] = {
    val s = new Array[Int](cols + 1)
    clusters.foreach(_.idx.foreach(j => s(j + 1) += 1))
    var j = 0
    while (j < cols) { s(j + 1) += s(j); j += 1 }
    s
  }

  private[core] val members: Array[Int] = {
    val m = new Array[Int](start(cols))
    val next = start.clone()
    var i = 0
    while (i < clusters.length) {
      clusters(i).idx.foreach { j => m(next(j)) = i; next(j) += 1 }
      i += 1
    }
    m
  }
}

/** The greedy cover of Section 4.2 over one [[CoverIndex]], with
  * scratch state reused across vertices (one instance per task).
  *
  * It keeps, per cluster `A`, `covered = |A ∩ Γ(u) ∖ Y|` and
  * `over = |A ∖ (Γ(u) ∪ Y)|`, so `score(A | Γ(u), Y) = covered − over`.
  * Only clusters sharing a column with `Γ(u)` can ever score above 0,
  * and when a pick adds columns to `Y` only the clusters listed under
  * those columns change. Picks, their order and their scores equal the
  * naive rescan of every cluster in every round: the highest score
  * wins, ties go to the lowest index, the loop stops when no score is
  * positive or after `size` rounds.
  */
final class GreedyCover(index: CoverIndex) {
  private val covered = new Array[Int](index.size)
  private val over = new Array[Int](index.size)
  private val seen = new Array[Int](index.size)
  private val active = new Array[Int](index.size)
  private val picks = new Array[Int](index.size)
  private val gains = new Array[Long](index.size)
  private val inG = new Array[Int](index.cols)
  private val inY = new Array[Int](index.cols)
  // Marks in `seen`, `inG` and `inY` count for the current vertex only
  // when they equal `epoch`, so nothing is cleared between vertices.
  private var epoch = 0

  /** Greedily cover the sorted, distinct neighborhood `g`. */
  def run(g: Array[Int]): GreedyCover.Result = {
    if (epoch == Int.MaxValue) {
      java.util.Arrays.fill(seen, 0); java.util.Arrays.fill(inG, 0); java.util.Arrays.fill(inY, 0)
      epoch = 0
    }
    epoch += 1
    val ix = index
    var nActive = 0
    var a = 0
    while (a < g.length) {
      val j = g(a)
      if (j >= 0 && j < ix.cols) {
        inG(j) = epoch
        var p = ix.start(j)
        while (p < ix.start(j + 1)) {
          val i = ix.members(p)
          if (seen(i) != epoch) { seen(i) = epoch; covered(i) = 0; active(nActive) = i; nActive += 1 }
          covered(i) += 1
          p += 1
        }
      }
      a += 1
    }
    var q = 0
    while (q < nActive) { val i = active(q); over(i) = ix.clusters(i).nnz - covered(i); q += 1 }

    var nPicks = 0
    var tp = 0
    var coverSize = 0
    var continue = true
    while (continue && nPicks < ix.size) {
      var best = -1; var bestScore = 0
      q = 0
      while (q < nActive) {
        val i = active(q)
        if (covered(i) == 0) {
          // `covered` never grows again, so the score stays ≤ 0.
          nActive -= 1; active(q) = active(nActive)
        } else {
          val s = covered(i) - over(i)
          if (s > bestScore || (s == bestScore && best >= 0 && i < best)) { bestScore = s; best = i }
          q += 1
        }
      }
      if (best < 0) continue = false
      else {
        picks(nPicks) = best; gains(nPicks) = bestScore; nPicks += 1
        val cols = ix.clusters(best).idx
        var c = 0
        while (c < cols.length) {
          val j = cols(c)
          if (inY(j) != epoch) {
            inY(j) = epoch
            coverSize += 1
            val hit = inG(j) == epoch
            if (hit) tp += 1
            var p = ix.start(j)
            while (p < ix.start(j + 1)) {
              val i = ix.members(p)
              if (seen(i) == epoch) { if (hit) covered(i) -= 1 else over(i) -= 1 }
              p += 1
            }
          }
          c += 1
        }
      }
    }
    GreedyCover.Result(
      java.util.Arrays.copyOf(picks, nPicks), java.util.Arrays.copyOf(gains, nPicks), tp, coverSize)
  }
}

object GreedyCover {

  /** One vertex's cover: the picked clusters in order, the score each
    * earned when taken, `|Γ(u) ∩ cover|` and `|cover|`.
    */
  final case class Result(picks: Array[Int], gains: Array[Long], truePositives: Int, coverSize: Int)
}

/** Second pass over the stream (Section 4): given the right clusters
  * `Ṽ_1..Ṽ_k` from the first pass, compute the left clusters. Each left
  * vertex is processed independently, so this is an embarrassingly
  * parallel Spark map with the right clusters broadcast.
  */
object SecondPass {

  /** The covering score of Section 4.2:
    * `score(A | X, Y) = |(X∖Y) ∩ A| − |A ∖ (X∪Y)|` — newly covered
    * elements minus fresh overcover.
    */
  def score(a: SparseVec, x: SparseVec, y: SparseVec): Int = {
    var covered = 0
    var over = 0
    var i = 0
    while (i < a.idx.length) {
      val j = a.idx(i)
      val inX = x.contains(j)
      val inY = y.contains(j)
      if (inX && !inY) covered += 1
      else if (!inX && !inY) over += 1
      i += 1
    }
    covered - over
  }

  /** Section 4.1 (biclustering): assign every vertex `u` to the single
    * cluster maximizing `|Γ(u) ∩ Ṽ_i| / |Ṽ_i|` (Eq. 2). Empty clusters
    * are never chosen; ties break toward the lowest index.
    */
  def assignBicluster(
      left: Dataset[LeftVertex],
      rightClusters: Array[SparseVec],
  )(implicit spark: SparkSession): Dataset[LeftAssignment] = {
    val bc = spark.sparkContext.broadcast(rightClusters)
    left.map { lv =>
      val vs = bc.value
      val g = lv.vec
      var best = 0; var bestScore = -1.0
      var i = 0
      while (i < vs.length) {
        if (vs(i).nnz > 0) {
          val s = g.intersectSize(vs(i)).toDouble / vs(i).nnz
          if (s > bestScore) { bestScore = s; best = i }
        }
        i += 1
      }
      LeftAssignment(lv.u, Array(best))
    }(assignmentEncoder)
  }

  /** One Spark job (Section 5.3 scoring, for all thresholds at once):
    * for every cluster set, the score `s_c` each cluster accumulates
    * over the greedy covers of all vertices.
    */
  def coverScores(
      left: Dataset[LeftVertex],
      sets: Seq[CoverIndex],
  )(implicit spark: SparkSession): Array[Array[Long]] =
    sumCovers(left, sets, _.size) { (acc, r, _) =>
      var p = 0
      while (p < r.picks.length) { acc(r.picks(p)) += r.gains(p); p += 1 }
    }

  /** One Spark job: for every cluster set, the reconstruction quality of
    * covering each vertex greedily with that set.
    */
  def coverQuality(
      left: Dataset[LeftVertex],
      sets: Seq[CoverIndex],
  )(implicit spark: SparkSession): Seq[Metrics.BmfQuality] =
    sumCovers(left, sets, _ => 3) { (acc, r, lv) =>
      acc(0) += r.truePositives; acc(1) += r.coverSize; acc(2) += lv.nbrs.length
    }.map(a => Metrics.BmfQuality(a(0), a(1), a(2))).toSeq

  /** Covers every vertex with every set in one pass, folding each
    * cover into that set's array of `width(set)` sums with `add`; the
    * partitions' arrays are summed on the driver.
    */
  private def sumCovers(
      left: Dataset[LeftVertex],
      sets: Seq[CoverIndex],
      width: CoverIndex => Int,
  )(add: (Array[Long], GreedyCover.Result, LeftVertex) => Unit)(
      implicit spark: SparkSession): Array[Array[Long]] = {
    val bc = spark.sparkContext.broadcast(sets.toArray)
    PartitionJob.run(left.rdd) { it =>
      val covers = bc.value.map(new GreedyCover(_))
      val acc = bc.value.map(ix => new Array[Long](width(ix)))
      it.foreach { lv =>
        var t = 0
        while (t < covers.length) { add(acc(t), covers(t).run(lv.nbrs), lv); t += 1 }
      }
      acc
    }.foldLeft(sets.map(ix => new Array[Long](width(ix))).toArray) { (x, y) =>
      x.indices.foreach(t => x(t).indices.foreach(i => x(t)(i) += y(t)(i)))
      x
    }
  }

  /** Lazily assign every vertex to the clusters of its greedy cover. */
  def coverAssignments(
      left: Dataset[LeftVertex],
      set: CoverIndex,
  )(implicit spark: SparkSession): Dataset[LeftAssignment] = {
    val bc = spark.sparkContext.broadcast(set)
    left.mapPartitions { it =>
      val cover = new GreedyCover(bc.value)
      it.map(lv => LeftAssignment(lv.u, cover.run(lv.nbrs).picks))
    }(assignmentEncoder)
  }

  /** Derived once, not by reflection on every call as
    * `spark.implicits` would.
    */
  private lazy val assignmentEncoder: Encoder[LeftAssignment] = Encoders.product[LeftAssignment]

  /** Section 5.3: the indices of the `k` highest-scoring clusters, in
    * ascending order (ties keep the lower index).
    */
  def topK(scores: Array[Long], k: Int): Array[Int] =
    scores.indices.sortBy(i => -scores(i)).take(k).sorted.toArray

  /** Section 5.3: keep the `k` candidate clusters with the highest
    * accumulated scores and re-run the cover against only those.
    * Returns the surviving clusters and the final assignments.
    */
  def topKBmf(
      left: Dataset[LeftVertex],
      candidates: Array[SparseVec],
      k: Int,
  )(implicit spark: SparkSession): (Array[SparseVec], Dataset[LeftAssignment]) = {
    val scores = coverScores(left, Seq(new CoverIndex(candidates))).head
    val kept = topK(scores, k).map(candidates)
    (kept, coverAssignments(left, new CoverIndex(kept)))
  }
}
