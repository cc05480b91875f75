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
    * A phase that opens every item it reads re-streams the same `cMax`
    * items in the same order, so the next phases repeat it exactly as
    * long as every draw is certain (see [[certainRepeats]]); those are
    * fast-forwarded: their `cMax − 1` draws are made and discarded, LB
    * is doubled and the restart counted, with no re-streaming.
    */
  def cluster(items: Iterator[Center], cfg: Config): IndexedSeq[Center] = {
    val rng = new Random(cfg.seed)
    val index = new CenterIndex
    var lb = 1.0
    var restarts = 0
    var pending: Iterator[Center] = items

    while (true) {
      val centers = ArrayBuffer.empty[Center]
      index.clear()
      val f = samplingScale(lb, cfg)
      var cost = 0.0
      var overflow = false
      var merged = false
      var wMin = Long.MaxValue

      while (pending.hasNext && !overflow) {
        val u = pending.next()
        if (centers.isEmpty) {
          centers += u
          index.add(u.vec)
        } else {
          val best = index.nearest(u.vec, cfg.alpha)
          val bestD = index.nearestDist
          val sampled = restarts < cfg.maxRestarts &&
            rng.nextDouble() < math.min(u.weight.toDouble * bestD / f, 1.0)
          if (sampled) {
            centers += u
            index.add(u.vec)
            wMin = math.min(wMin, u.weight)
            if (centers.length >= cfg.cMax) overflow = true
          } else {
            merged = true
            cost += u.weight.toDouble * bestD
            val c = centers(best)
            c.weight += u.weight
            c.mg.merge(u.mg)
            if (cost > 2.0 * lb) overflow = true
          }
        }
      }

      if (!overflow && !pending.hasNext) return centers.toIndexedSeq

      // Restart: double LB, re-stream current centers then the unread tail.
      // (Iterator.++ takes its argument by name — capture the current
      // tail in a val first, or the new iterator would lazily re-read
      // the reassigned `pending` var and reference itself.)
      lb *= 2.0
      restarts += 1
      if (!merged) {
        var skip = certainRepeats(wMin, lb, restarts, cfg)
        while (skip > 0) {
          var draw = 1
          while (draw < cfg.cMax) { rng.nextDouble(); draw += 1 }
          lb *= 2.0
          restarts += 1
          skip -= 1
        }
      }
      val unread = pending
      pending = centers.iterator ++ unread
    }
    sys.error("unreachable")
  }

  /** The importance-sampling scale `f = LB/(k(1+log n))` of a phase. */
  private def samplingScale(lb: Double, cfg: Config): Double =
    lb / (cfg.k * (1.0 + math.log(cfg.nRight.toDouble)))

  /** How many phases in a row, starting with the one about to run at
    * `lb` with `restarts` restarts so far, repeat the phase before it
    * exactly. That phase opened each of its `cMax` items (every item
    * after the first through a draw, the lightest of those weighing
    * `wMin`) and merged none. The next phase re-reads those items in
    * that order, so each draws at the same distance `d`; the items are
    * pairwise distinct (an item at `d = 0` is never opened), and
    * `d = (|u|−∩) + α(|c|−∩)` of distinct items is at least
    * `min(1, α)`. Sampling is therefore certain whenever
    * `wMin·min(1, α) ≥ f` (then `w·d/f ≥ 1`) and the phase still
    * samples (`restarts < maxRestarts`): it opens every item again,
    * overflows, and the next phase faces the same question at `2·LB`.
    */
  private[core] def certainRepeats(wMin: Long, lb: Double, restarts: Int, cfg: Config): Int = {
    val floor = wMin.toDouble * math.min(1.0, cfg.alpha)
    var n = 0
    var l = lb
    while (restarts + n < cfg.maxRestarts && floor >= samplingScale(l, cfg)) { n += 1; l *= 2.0 }
    n
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
  def threshold(mg: MisraGries, theta: Double, totalWeight: Long): SparseVec = {
    val cut = theta * totalWeight
    val items = mg.itemsAtLeast(cut)
    java.util.Arrays.sort(items)
    SparseVec.fromSortedDistinct(items)
  }
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
    val clusters = centers.map(c => Sofa.threshold(c.mg, theta, c.weight)).toArray
    Result(centers.toIndexedSeq, clusters)
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
  private var size = 0
  private var nnz = new Array[Int](16)
  private var inter = new Array[Int](16)
  private var vecs = new Array[SparseVec](16)
  private var postings = new Array[Array[Int]](0)
  private var postingLen = new Array[Int](0)

  /** Distance from the last [[nearest]] query to its nearest center. */
  var nearestDist: Double = Double.MaxValue

  /** Open a center with vector `v`; its index is the number of centers
    * opened since the last [[clear]].
    */
  def add(v: SparseVec): Unit = {
    if (size == nnz.length) {
      val cap = 2 * size
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
      postings(j)(len) = size
      postingLen(j) = len + 1
      a += 1
    }
    nnz(size) = v.nnz
    vecs(size) = v
    size += 1
  }

  /** Drop every center; the posting arrays are kept for reuse. */
  def clear(): Unit = {
    var c = 0
    while (c < size) {
      val cols = vecs(c).idx
      var a = 0
      while (a < cols.length) { postingLen(cols(a)) = 0; a += 1 }
      vecs(c) = null
      c += 1
    }
    size = 0
  }

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
    while (c < size) {
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
