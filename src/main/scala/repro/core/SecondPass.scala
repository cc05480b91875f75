package repro.core

import org.apache.spark.broadcast.Broadcast
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

/** The greedy cover of Section 4.2 over the right clusters `clusters`,
  * read through their [[CenterIndex]], with scratch state reused
  * across vertices (one instance per task). It is the one place that
  * computes the cover score; sofa's second pass and basso drive it.
  *
  * It keeps, per cluster `A`, `covered = |A ∩ Γ(u) ∖ Y|` and
  * `over = |A ∖ (Γ(u) ∪ Y)|`, so `score(A | Γ(u), Y) = covered − over`.
  * Only clusters sharing a column with `Γ(u)` can ever score above 0,
  * and when [[take]] adds columns to `Y` only the clusters listed under
  * those columns change. [[run]]'s picks, their order and their scores
  * equal the naive rescan of every cluster in every round: the highest
  * score wins, ties go to the lowest index, the loop stops when no
  * score is positive or after `clusters.length` rounds.
  */
final class GreedyCover(clusters: Array[SparseVec]) {
  private val index = new CenterIndex
  clusters.foreach(index.add)
  private val size = clusters.length
  private val covered = new Array[Int](size)
  private val over = new Array[Int](size)
  private val seen = new Array[Int](size)
  private val active = new Array[Int](size)
  private val picks = new Array[Int](size)
  private val gains = new Array[Long](size)
  private val inG = new Array[Int](index.columns)
  private val inY = new Array[Int](index.columns)
  // Marks in `seen`, `inG` and `inY` count for the current vertex only
  // when they equal `epoch`, so nothing is cleared between vertices.
  private var epoch = 0
  private var nActive = 0
  private var nPicks = 0
  private var tp = 0
  private var coverSize = 0

  /** Start covering the neighborhood `g` with `Y = ∅`. */
  def start(g: SparseVec): Unit = {
    if (epoch == Int.MaxValue) {
      java.util.Arrays.fill(seen, 0); java.util.Arrays.fill(inG, 0); java.util.Arrays.fill(inY, 0)
      epoch = 0
    }
    epoch += 1
    nActive = 0; nPicks = 0; tp = 0; coverSize = 0
    val gIdx = g.idx
    var a = 0
    while (a < gIdx.length) {
      val j = gIdx(a)
      if (j >= 0 && j < index.columns) {
        inG(j) = epoch
        val list = index.postingList(j)
        var p = 0
        while (p < index.postingLength(j)) {
          val i = list(p)
          if (seen(i) != epoch) { seen(i) = epoch; covered(i) = 0; active(nActive) = i; nActive += 1 }
          covered(i) += 1
          p += 1
        }
      }
      a += 1
    }
    var q = 0
    while (q < nActive) { val i = active(q); over(i) = clusters(i).nnz - covered(i); q += 1 }
  }

  /** `max(0, score(A_i | Γ(u), Y))`. */
  def gain(i: Int): Int = if (seen(i) == epoch) math.max(0, covered(i) - over(i)) else 0

  /** Calls `f(i, gain(i))` for every cluster `i` whose gain is positive. */
  def foreachGain(f: (Int, Int) => Unit): Unit = {
    var q = 0
    while (q < nActive) {
      val i = active(q)
      if (covered(i) > over(i)) f(i, covered(i) - over(i))
      q += 1
    }
  }

  /** Add cluster `i` to `Y`, recording it as a pick with its current gain. */
  def take(i: Int): Unit = {
    picks(nPicks) = i; gains(nPicks) = gain(i); nPicks += 1
    val cols = clusters(i).idx
    var c = 0
    while (c < cols.length) {
      val j = cols(c)
      if (inY(j) != epoch) {
        inY(j) = epoch
        coverSize += 1
        val hit = inG(j) == epoch
        if (hit) tp += 1
        val list = index.postingList(j)
        var p = 0
        while (p < index.postingLength(j)) {
          val k = list(p)
          if (seen(k) == epoch) { if (hit) covered(k) -= 1 else over(k) -= 1 }
          p += 1
        }
      }
      c += 1
    }
  }

  /** The picks since [[start]], each with its gain when taken, and TP and `|Y|`. */
  def result: GreedyCover.Result =
    GreedyCover.Result(java.util.Arrays.copyOf(picks, nPicks), java.util.Arrays.copyOf(gains, nPicks), tp, coverSize)

  /** Greedily cover the neighborhood `g`. */
  def run(g: SparseVec): GreedyCover.Result = {
    start(g)
    var continue = true
    while (continue && nPicks < size) {
      var best = -1; var bestScore = 0
      var q = 0
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
      if (best < 0) continue = false else take(best)
    }
    result
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
      sets: Seq[Array[SparseVec]],
  )(implicit spark: SparkSession): Array[Array[Long]] =
    sumCovers(left, spark.sparkContext.broadcast(sets.toArray), _.length) { (acc, cover, g) =>
      val r = cover.run(g)
      var p = 0
      while (p < r.picks.length) { acc(r.picks(p)) += r.gains(p); p += 1 }
    }

  /** One Spark job: for every cluster set, the reconstruction quality of
    * covering each vertex greedily with that set.
    */
  def coverQuality(
      left: Dataset[LeftVertex],
      sets: Seq[Array[SparseVec]],
  )(implicit spark: SparkSession): Seq[Metrics.BmfQuality] =
    sumCovers(left, spark.sparkContext.broadcast(sets.toArray), _ => 3) { (acc, cover, g) =>
      val r = cover.run(g)
      acc(0) += r.truePositives; acc(1) += r.coverSize; acc(2) += g.nnz
    }.map(a => Metrics.BmfQuality(a(0), a(1), a(2))).toSeq

  /** The one cover fold, one Spark job: every task builds a
    * [[GreedyCover]] per broadcast set and hands it, with every vertex
    * `lv.vec` (so malformed rows are rejected), to `add`, which covers
    * the vertex and folds the cover into that set's array of
    * `width(set)` sums. The partitions' arrays are summed on the driver.
    */
  private[repro] def sumCovers(
      left: Dataset[LeftVertex],
      bc: Broadcast[Array[Array[SparseVec]]],
      width: Array[SparseVec] => Int,
  )(add: (Array[Long], GreedyCover, SparseVec) => Unit): Array[Array[Long]] =
    PartitionJob.run(left.rdd) { it =>
      val sets = bc.value
      val covers = sets.map(new GreedyCover(_))
      val acc = sets.map(c => new Array[Long](width(c)))
      it.foreach { lv =>
        val g = lv.vec
        var t = 0
        while (t < covers.length) { add(acc(t), covers(t), g); t += 1 }
      }
      acc
    }.foldLeft(bc.value.map(c => new Array[Long](width(c)))) { (x, y) =>
      x.indices.foreach(t => x(t).indices.foreach(i => x(t)(i) += y(t)(i)))
      x
    }

  /** Lazily assign every vertex to the clusters of its greedy cover. */
  def coverAssignments(
      left: Dataset[LeftVertex],
      set: Array[SparseVec],
  )(implicit spark: SparkSession): Dataset[LeftAssignment] = {
    val bc = spark.sparkContext.broadcast(set)
    left.mapPartitions { it =>
      val cover = new GreedyCover(bc.value)
      it.map(lv => LeftAssignment(lv.u, cover.run(lv.vec).picks))
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
    val scores = coverScores(left, Seq(candidates)).head
    val kept = topK(scores, k).map(candidates)
    (kept, coverAssignments(left, kept))
  }
}
