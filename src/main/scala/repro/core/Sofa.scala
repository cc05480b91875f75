package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import repro.data.Bipartite

/** The sofa algorithm (Algorithm 2): one pass over the left vertices,
  * maintaining at most `cMax` weighted centers, each with a mergeable
  * Misra–Gries sketch of the right-vertex frequencies of the vertices
  * assigned to it. Built on the importance-sampling streaming k-medians
  * of Braverman et al. (SODA'11): a vertex at distance `d` from its
  * closest center becomes a new center with probability
  * `min(w·d/f, 1)` where `f = LB/(k(1+log n))`; when the center budget
  * overflows or the accumulated cost exceeds `2·LB`, the lower bound is
  * doubled and the pass restarts on the stream made of the current
  * (weighted) centers followed by the unread suffix.
  *
  * Distances use the asymmetric weighted Hamming distance of
  * Section 5.1 with `alpha = 0.1` by default.
  */
object Sofa {

  /** Algorithm parameters.
    *
    * @param k           number of clusters to output
    * @param cMax        center budget (paper: 20k on real data)
    * @param nRight      number of right-side vertices `n`
    * @param mgCapacity  counters per Misra–Gries sketch (paper: max(3s, 0.05n))
    * @param alpha       asymmetric Hamming weight (1.0 = symmetric)
    * @param seed        RNG seed for the importance sampling
    * @param maxRestarts cap on LB doublings after which no vertex is
    *                    sampled as a new center: each joins its closest
    *                    center, though a cost overflow still doubles LB
    *                    and re-streams
    */
  final case class Config(
      k: Int,
      cMax: Int,
      nRight: Int,
      mgCapacity: Int,
      alpha: Double = 0.1,
      seed: Long = 42L,
      maxRestarts: Int = 64,
  ) {
    require(k >= 1, s"k must be >= 1, got $k")
    require(cMax > k, s"cMax ($cMax) must exceed k ($k)")
    require(nRight >= 1 && mgCapacity >= 1)
  }

  object Config {

    /** The paper's real-data parameters (Section 6.2) for a dataset:
      * sketch counters `max(3s, 0.05n)` with `s` the P99 left degree,
      * and `c_max = 20k`, capped at `m/4` (DESIGN.md §4) but above `k`.
      */
    def forDataset(st: Bipartite.DatasetStats, k: Int): Config = {
      val counters = math.max(3 * math.max(1, st.p99Deg), (0.05 * st.nV).toInt).max(8)
      val cMax = math.max(k + 1, math.min(20 * k, st.mU.toInt / 4))
      Config(k = k, cMax = cMax, nRight = st.nV.toInt, mgCapacity = counters)
    }
  }

  /** A weighted center: representative vector, total assigned weight,
    * and the merged sketch of all member neighborhoods. A fresh stream
    * vertex is a center of weight 1 whose sketch holds its own edges.
    */
  final class Center(
      val vec: SparseVec,
      var weight: Long,
      val mg: MisraGries,
  ) extends Serializable {
    def copyOf(): Center = new Center(vec, weight, mg.copy())
    override def toString: String = s"Center(nnz=${vec.nnz}, w=$weight)"
  }

  /** Wrap a raw stream vertex as a weight-1 center. */
  def freshItem(vec: SparseVec, cfg: Config): Center =
    new Center(vec, 1L, MisraGries.ofVector(vec, cfg.mgCapacity))

  /** Run the first pass over `items` and return the surviving centers
    * (at most `cMax − 1` after the final non-overflowing pass).
    *
    * `items` may mix fresh vertices and previously computed centers —
    * this is exactly how restarts work internally and how the
    * distributed version merges per-partition center sets.
    *
    * A restart re-streams the centers in their order and never changes
    * a center's vector, so it reuses two answers of the phase before
    * (DESIGN.md §2, "Restart reuse"): a center of the phase before
    * takes its recorded nearest earlier center when that one opened
    * again (the argmin of a set is the argmin of any subset that holds
    * it, ties included); and the index is kept, and truncated only at
    * the first re-streamed center that does not open again. A phase
    * that re-opens every center of the phase before therefore makes no
    * index query: it costs its draws and one record read per item. Any
    * other item, including a re-streamed one that an overflow left
    * unread, queries the index.
    */
  def cluster(items: Iterator[Center], cfg: Config): IndexedSeq[Center] = {
    val rng = new Random(cfg.seed)
    val index = new CenterIndex
    var lb = 1.0
    var restarts = 0
    // A restart re-streams the `carried` centers of the phase before,
    // then any items an overflow left unread, then the unread tail.
    var again = Array.empty[Center]
    var carried = 0
    // Each center's record, by position: the position of its nearest
    // earlier center (−1 for none) and that distance, for this phase's
    // centers and for the centers of the phase before.
    var near = new Array[Int](cfg.cMax)
    var nearDist = new Array[Double](cfg.cMax)
    var lastNear = new Array[Int](cfg.cMax)
    var lastDist = new Array[Double](cfg.cMax)

    while (true) {
      val centers = ArrayBuffer.empty[Center]
      // Position among `centers` of each carried center read, −1 if merged.
      val reopened = new Array[Int](carried)
      var read = 0
      val f = lb / (cfg.k * (1.0 + math.log(cfg.nRight.toDouble)))
      var cost = 0.0
      var overflow = false

      while ((read < again.length || items.hasNext) && !overflow) {
        val restreamed = read < again.length
        val u = if (restreamed) again(read) else items.next()
        var best = -1
        var bestD = 0.0
        var opens = true
        if (centers.nonEmpty) {
          val r = if (read < carried) lastNear(read) else -1
          if (r >= 0 && reopened(r) >= 0) {
            best = reopened(r)
            bestD = lastDist(read)
          } else {
            // The index holds exactly `centers` here: it starts the phase
            // with the carried centers and is ahead only while every item
            // read has reopened, when every record's center has too.
            best = index.nearest(u.vec, cfg.alpha)
            bestD = index.nearestDist
          }
          opens = restarts < cfg.maxRestarts && rng.nextDouble() < math.min(u.weight * bestD / f, 1.0)
        }
        if (read < carried) reopened(read) = if (opens) centers.length else -1
        if (restreamed) read += 1
        if (opens) {
          near(centers.length) = best
          nearDist(centers.length) = bestD
          // A larger index already holds `u` here: every item read so
          // far reopened at the position it had in the phase before.
          if (index.size == centers.length) index.add(u.vec)
          centers += u
          if (centers.length >= cfg.cMax) overflow = true
        } else {
          index.truncate(centers.length)
          cost += u.weight.toDouble * bestD
          val c = centers(best)
          c.weight += u.weight
          c.mg.merge(u.mg)
          if (cost > 2.0 * lb) overflow = true
        }
      }

      if (!overflow) return centers.toIndexedSeq

      // Restart: double LB, re-stream the current centers, then the
      // re-streamed items this phase left unread, then the unread tail.
      lb *= 2.0
      restarts += 1
      again = centers.toArray ++ again.drop(read)
      carried = centers.length
      val n = near; near = lastNear; lastNear = n
      val d = nearDist; nearDist = lastDist; lastDist = d
    }
    sys.error("unreachable")
  }

  /** Postprocessing with the static k-medians step (Lines 21–25): group
    * the centers into `k` clusters, merge each group's sketches, and
    * emit right clusters `Ṽ_i = { j : counter_i(j) ≥ θ·W_i }` where
    * `W_i` is the group's total weight. The grouping depends only on
    * the centers and `cfg`, so every `θ` sees the same groups (Section
    * 5.4, "multiple thresholds").
    *
    * @return the right clusters (index i = cluster i)
    */
  def postprocessKMedians(
      centers: IndexedSeq[Center],
      cfg: Config,
      theta: Double,
  ): Array[SparseVec] = {
    if (centers.isEmpty) return Array.empty
    val pts = centers.map(c => KMedians.WPoint(c.vec, c.weight))
    val res = KMedians.cluster(pts, cfg.k, cfg.alpha, seed = cfg.seed)
    val groups: Map[Int, IndexedSeq[Int]] =
      centers.indices.groupBy(res.assignment)
    groups.toSeq.sortBy(_._1).map { case (_, members) =>
      val mg = MisraGries(cfg.mgCapacity)
      var w = 0L
      members.foreach { i => mg.merge(centers(i).mg); w += centers(i).weight }
      threshold(mg, theta, w)
    }.toArray
  }

  /** Postprocessing variant of Section 5.3 (BMF): skip k-medians and
    * emit one candidate right cluster per center. May return up to
    * `cMax` clusters; the second pass scores them and keeps the top k.
    */
  def postprocessPerCenter(
      centers: IndexedSeq[Center],
      theta: Double,
  ): Array[SparseVec] =
    centers.map(c => threshold(c.mg, theta, c.weight)).toArray

  /** `{ j : estimate(j) ≥ θ·W }` as a sparse vector. */
  def threshold(mg: MisraGries, theta: Double, totalWeight: Long): SparseVec =
    SparseVec.fromSortedDistinct(mg.itemsAtLeast(theta * totalWeight))
}

/** Algorithm 1: the greedy variant analyzed in Theorem 1. Opens a new
  * center whenever the incoming vertex is farther than `alphaDist`
  * (symmetric Hamming) from every existing center, otherwise merges it
  * into the closest one. Postprocessing thresholds each center's sketch
  * at `θ·n_c`.
  */
object GreedyBicluster {

  final case class Result(centers: IndexedSeq[Sofa.Center], clusters: Array[SparseVec])

  def run(
      stream: Iterator[SparseVec],
      alphaDist: Double,
      theta: Double,
      mgCapacity: Int,
  ): Result = {
    val centers = ArrayBuffer.empty[Sofa.Center]
    val index = new CenterIndex
    stream.foreach { x =>
      // With alpha = 1 the index distance is the symmetric Hamming distance.
      val best = index.nearest(x, alpha = 1.0)
      if (best < 0 || index.nearestDist > alphaDist) {
        centers += new Sofa.Center(x, 1L, MisraGries.ofVector(x, mgCapacity))
        index.add(x)
      } else {
        val c = centers(best)
        c.weight += 1L
        c.mg.merge(MisraGries.ofVector(x, mgCapacity))
      }
    }
    val out = centers.toIndexedSeq
    Result(out, Sofa.postprocessPerCenter(out, theta))
  }
}

/** Exact column→set inverted index over the open centers of one
  * clustering pass, the centers of one Lloyd round ([[KMedians]],
  * static sofa), or the clusters of one [[GreedyCover]].
  *
  * Sets never change once added, so the index keeps a posting list per
  * column with the sets that have it (ascending: in insertion order)
  * plus each set's `nnz`. A [[nearest]] query walks the posting lists
  * of the point's columns to count `|c ∩ u|` for every center, then
  * makes one pass over the centers to evaluate
  * `(|u| − ∩) + alpha·(|c| − ∩)` — the very expression of
  * [[SparseVec.asymDistTo]], so every distance is bit-identical — and
  * to reset the counts. A query therefore costs the summed posting-list
  * lengths plus the number of centers, instead of one sorted merge per
  * center. Ties go to the lowest center index, as in a linear scan
  * with a strict `<`. Queries write scratch state, so the index is not
  * serializable: every task builds its own.
  */
private[repro] final class CenterIndex {
  private var count = 0
  private var nnz = new Array[Int](16)
  private var inter = new Array[Int](16)
  private var vecs = new Array[SparseVec](16)
  private var postings = new Array[Array[Int]](0)
  private var postingLen = new Array[Int](0)

  /** Distance from the last [[nearest]] query to its nearest center. */
  var nearestDist: Double = Double.MaxValue

  /** Open a center with vector `v`; its index is the number of centers
    * open before it.
    */
  def add(v: SparseVec): Unit = {
    if (count == nnz.length) {
      val cap = 2 * count
      nnz = java.util.Arrays.copyOf(nnz, cap)
      inter = java.util.Arrays.copyOf(inter, cap)
      vecs = java.util.Arrays.copyOf(vecs, cap)
    }
    val cols = v.idx
    require(cols.isEmpty || cols(0) >= 0, s"center columns must be non-negative, got ${cols(0)}")
    if (cols.nonEmpty && cols.last >= postings.length) {
      val n = math.max(cols.last + 1, 2 * postings.length)
      postings = java.util.Arrays.copyOf(postings, n)
      postingLen = java.util.Arrays.copyOf(postingLen, n)
    }
    var a = 0
    while (a < cols.length) {
      val j = cols(a)
      val len = postingLen(j)
      if (postings(j) == null) postings(j) = new Array[Int](4)
      else if (len == postings(j).length) postings(j) = java.util.Arrays.copyOf(postings(j), 2 * len)
      postings(j)(len) = count
      postingLen(j) = len + 1
      a += 1
    }
    nnz(count) = v.nnz
    vecs(count) = v
    count += 1
  }

  /** Number of open centers. */
  def size: Int = count

  /** Keep the first `m` centers and drop the postings of the rest, the
    * last entries of their columns' ascending lists; the posting arrays
    * are kept for reuse.
    */
  def truncate(m: Int): Unit =
    while (count > m) {
      count -= 1
      val cols = vecs(count).idx
      var a = 0
      while (a < cols.length) { postingLen(cols(a)) -= 1; a += 1 }
      vecs(count) = null
    }

  /** Drop every center. */
  def clear(): Unit = truncate(0)

  /** The sets containing column `j < columns`, ascending, are
    * `postingList(j)(0 until postingLength(j))`; no set has a column
    * at or past `columns`.
    */
  private[core] def columns: Int = postings.length
  private[core] def postingList(j: Int): Array[Int] = postings(j)
  private[core] def postingLength(j: Int): Int = postingLen(j)

  /** Index of the center nearest to `u` under the asymmetric distance
    * with weight `alpha` (lowest index on ties), or −1 when no center
    * is open; its distance is left in [[nearestDist]].
    */
  def nearest(u: SparseVec, alpha: Double): Int = {
    val cols = u.idx
    var a = 0
    while (a < cols.length) {
      val j = cols(a)
      if (j >= 0 && j < postings.length) {
        val list = postings(j)
        val len = postingLen(j)
        var p = 0
        while (p < len) { inter(list(p)) += 1; p += 1 }
      }
      a += 1
    }
    val un = u.nnz
    var best = -1; var bestD = Double.MaxValue
    var c = 0
    while (c < count) {
      val i = inter(c)
      val d = (un - i).toDouble + alpha * (nnz(c) - i).toDouble
      inter(c) = 0
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    nearestDist = bestD
    best
  }
}
