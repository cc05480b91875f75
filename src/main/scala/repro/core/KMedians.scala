package repro.core

import scala.util.Random

/** Weighted k-medians over sparse binary vectors.
  *
  * This is the static O(1)-approximate clustering used in sofa's
  * postprocessing (Line 21 of Algorithm 2). The paper's implementation
  * uses scikit-learn's k-means there (Section 5.2); we implement the
  * binary-vector analogue: k-means++-style D-sampling seeding followed
  * by Lloyd iterations where the center update is the coordinate-wise
  * weighted majority — the 1-median of a set of binary vectors under
  * Hamming distance. Each Lloyd round finds every point's nearest
  * center with the exact [[CenterIndex]] of the first pass.
  *
  * Inputs are tiny (≤ c_max centers), so this runs on the driver.
  */
object KMedians {

  /** A weighted point to cluster. */
  final case class WPoint(vec: SparseVec, weight: Long)

  /** Result: for every input point, the index of its cluster in [0, k). */
  final case class Result(assignment: Array[Int], centers: Array[SparseVec], cost: Double)

  // Independent seedings per call, and the Lloyd round cap of each.
  private val Restarts = 7
  private val MaxIter = 25

  /** Cluster `points` into at most `k` groups. Runs [[Restarts]]
    * independent seedings and keeps the lowest-cost result (k-means++
    * is randomized; a bad seed can cost a whole cluster).
    *
    * @param alpha asymmetric Hamming weight used for assignment
    *              distances (Section 5.1); center updates use majority.
    */
  def cluster(
      points: IndexedSeq[WPoint],
      k: Int,
      alpha: Double = 1.0,
      seed: Long = 17L,
  ): Result = {
    (0 until Restarts)
      .map(r => clusterOnce(points, k, alpha, seed + 1000L * r))
      .minBy(_.cost)
  }

  private def clusterOnce(
      points: IndexedSeq[WPoint],
      k: Int,
      alpha: Double,
      seed: Long,
  ): Result = {
    require(k >= 1, s"k must be >= 1, got $k")
    val m = points.length
    if (m == 0) return Result(Array.emptyIntArray, Array.empty, 0.0)
    val kk = math.min(k, m)
    val rng = new Random(seed)

    // --- k-means++ style seeding on weighted points -----------------
    val centers = new Array[SparseVec](kk)
    centers(0) = points(weightedDraw(points.map(_.weight.toDouble), rng)).vec
    val d2 = Array.fill(m)(Double.MaxValue)
    var c = 1
    while (c < kk) {
      var i = 0
      while (i < m) {
        val d = centers(c - 1).asymDistTo(points(i).vec, alpha)
        if (d < d2(i)) d2(i) = d
        i += 1
      }
      val probs = Array.tabulate(m)(i => d2(i) * points(i).weight)
      val tot = probs.sum
      centers(c) =
        if (tot <= 0) points(rng.nextInt(m)).vec
        else points(weightedDraw(probs.toIndexedSeq, rng)).vec
      c += 1
    }

    // --- Lloyd iterations with majority-vote center update ----------
    val assign = new Array[Int](m)
    val index = new CenterIndex
    var cost = 0.0
    var it = 0
    var changed = true
    while (it < MaxIter && changed) {
      changed = false
      cost = 0.0
      index.clear()
      centers.foreach(index.add)
      var i = 0
      while (i < m) {
        val best = index.nearest(points(i).vec, alpha)
        if (assign(i) != best) { assign(i) = best; changed = true }
        cost += index.nearestDist * points(i).weight
        i += 1
      }
      if (changed) {
        var j = 0
        while (j < kk) {
          val members = (0 until m).filter(assign(_) == j)
          if (members.nonEmpty)
            centers(j) = majority(members.map(points), 0.5)
          j += 1
        }
      }
      it += 1
    }
    Result(assign, centers.clone(), cost)
  }

  /** Coordinate-wise weighted majority: keep columns whose weighted
    * support is at least `frac` of the total member weight. This is the
    * Hamming 1-median for frac = 0.5.
    */
  def majority(members: Seq[WPoint], frac: Double): SparseVec = {
    val counts = scala.collection.mutable.LongMap.empty[Long]
    var totalW = 0L
    members.foreach { p =>
      totalW += p.weight
      p.vec.idx.foreach(j => counts(j.toLong) = counts.getOrElse(j.toLong, 0L) + p.weight)
    }
    val thresh = frac * totalW
    SparseVec.fromArray(
      counts.iterator.collect { case (j, cnt) if cnt >= thresh => j.toInt }.toArray
    )
  }

  /** Draw an index with probability proportional to `weights`. */
  private def weightedDraw(weights: IndexedSeq[Double], rng: Random): Int = {
    val tot = weights.sum
    if (tot <= 0) return rng.nextInt(weights.length)
    var x = rng.nextDouble() * tot
    var i = 0
    while (i < weights.length - 1) {
      x -= weights(i)
      if (x <= 0) return i
      i += 1
    }
    weights.length - 1
  }
}
