package repro.baselines

import scala.util.Random

/** Minimal dense linear algebra for the spectral baselines.
  *
  * The random-subgraph reduction (Section 5.5) hands the spectral
  * algorithms a small `m̃ × ñ` matrix, so driver-side dense computation
  * suffices. Provides: sparse-row matrix–vector products, classical
  * Gram–Schmidt QR, truncated SVD by orthogonal (subspace) iteration on
  * `AᵀA`, and Euclidean k-means for the embedding step.
  */
object LinAlg {

  /** Row-sparse matrix: `rows(i)` holds the sorted column indices of
    * the 1-entries of row `i`; `values(i)(j)` the corresponding value.
    */
  final case class SparseMatrix(
      numRows: Int,
      numCols: Int,
      rowIdx: Array[Array[Int]],
      rowVal: Array[Array[Double]],
  ) {
    /** `y = A x` */
    def mult(x: Array[Double]): Array[Double] = {
      val y = new Array[Double](numRows)
      var i = 0
      while (i < numRows) {
        val idx = rowIdx(i); val vl = rowVal(i)
        var s = 0.0
        var j = 0
        while (j < idx.length) { s += vl(j) * x(idx(j)); j += 1 }
        y(i) = s
        i += 1
      }
      y
    }

    /** `y = Aᵀ x` */
    def multT(x: Array[Double]): Array[Double] = {
      val y = new Array[Double](numCols)
      var i = 0
      while (i < numRows) {
        val idx = rowIdx(i); val vl = rowVal(i)
        val xi = x(i)
        var j = 0
        while (j < idx.length) { y(idx(j)) += vl(j) * xi; j += 1 }
        i += 1
      }
      y
    }
  }

  /** Truncated SVD result: `u` is `numRows × k` (column-major per
    * singular vector), `s` the singular values, `v` is `numCols × k`.
    */
  final case class Svd(u: Array[Array[Double]], s: Array[Double], v: Array[Array[Double]])

  private val SvdIters = 60

  /** Top-`k` singular triplets of `a` by orthogonal iteration on the
    * right singular subspace: `V ← qr(Aᵀ(A V))`, [[SvdIters]] times.
    * Deterministic in `seed`.
    */
  def truncatedSvd(a: SparseMatrix, k: Int, seed: Long = 5L): Svd = {
    val dim = a.numCols
    val kk = math.max(1, math.min(k, math.min(a.numRows, dim)))
    val rng = new Random(seed)
    var v = Array.fill(kk)(Array.fill(dim)(rng.nextGaussian()))
    orthonormalize(v)
    var it = 0
    while (it < SvdIters) {
      v = v.map(col => a.multT(a.mult(col)))
      orthonormalize(v)
      it += 1
    }
    val av = v.map(a.mult) // A v_i = σ_i u_i
    val sv = av.map(norm2)
    val u = av.zip(sv).map { case (col, s) =>
      if (s > 1e-12) col.map(_ / s) else col
    }
    // Order by decreasing singular value.
    val order = sv.indices.sortBy(i => -sv(i)).toArray
    Svd(order.map(u), order.map(sv), order.map(v))
  }

  /** In-place modified Gram–Schmidt; degenerate columns are replaced
    * with unit basis noise to keep the subspace full-rank.
    */
  def orthonormalize(cols: Array[Array[Double]]): Unit = {
    val rng = new Random(11L)
    var i = 0
    while (i < cols.length) {
      var j = 0
      while (j < i) {
        val d = dot(cols(i), cols(j))
        axpy(-d, cols(j), cols(i))
        j += 1
      }
      var n = norm2(cols(i))
      if (n < 1e-12) {
        var t = 0
        while (t < cols(i).length) { cols(i)(t) = rng.nextGaussian() * 1e-3; t += 1 }
        j = 0
        while (j < i) { axpy(-dot(cols(i), cols(j)), cols(j), cols(i)); j += 1 }
        n = norm2(cols(i))
      }
      if (n > 1e-300) scale(1.0 / n, cols(i))
      i += 1
    }
  }

  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }
  def norm2(a: Array[Double]): Double = math.sqrt(dot(a, a))
  def axpy(alpha: Double, x: Array[Double], y: Array[Double]): Unit = {
    var i = 0
    while (i < x.length) { y(i) += alpha * x(i); i += 1 }
  }
  def scale(alpha: Double, x: Array[Double]): Unit = {
    var i = 0
    while (i < x.length) { x(i) *= alpha; i += 1 }
  }

  private val KmeansMaxIter = 50

  /** Plain Euclidean k-means (k-means++ seeding + Lloyd, at most
    * [[KmeansMaxIter]] rounds) on dense points; used on the spectral
    * embeddings.
    */
  def kmeans(
      points: Array[Array[Double]],
      k: Int,
      seed: Long = 23L,
  ): Array[Int] = {
    val m = points.length
    if (m == 0) return Array.emptyIntArray
    val kk = math.max(1, math.min(k, m))
    val rng = new Random(seed)
    val dim = points(0).length
    val centers = Array.ofDim[Double](kk, dim)
    // k-means++ seeding
    copyTo(points(rng.nextInt(m)), centers(0))
    val d2 = Array.fill(m)(Double.MaxValue)
    var c = 1
    while (c < kk) {
      var i = 0
      while (i < m) {
        val d = sqDist(points(i), centers(c - 1))
        if (d < d2(i)) d2(i) = d
        i += 1
      }
      val tot = d2.sum
      val pick =
        if (tot <= 0) rng.nextInt(m)
        else {
          var x = rng.nextDouble() * tot; var i = 0
          while (i < m - 1 && x > d2(i)) { x -= d2(i); i += 1 }
          i
        }
      copyTo(points(pick), centers(c))
      c += 1
    }
    val assign = new Array[Int](m)
    var changed = true
    var it = 0
    while (changed && it < KmeansMaxIter) {
      changed = false
      var i = 0
      while (i < m) {
        var best = 0; var bestD = Double.MaxValue
        var j = 0
        while (j < kk) {
          val d = sqDist(points(i), centers(j))
          if (d < bestD) { bestD = d; best = j }
          j += 1
        }
        if (assign(i) != best) { assign(i) = best; changed = true }
        i += 1
      }
      if (changed) {
        val sums = Array.ofDim[Double](kk, dim)
        val cnt = new Array[Int](kk)
        var i2 = 0
        while (i2 < m) {
          val a = assign(i2)
          axpy(1.0, points(i2), sums(a))
          cnt(a) += 1
          i2 += 1
        }
        var j = 0
        while (j < kk) {
          if (cnt(j) > 0) { scale(1.0 / cnt(j), sums(j)); copyTo(sums(j), centers(j)) }
          j += 1
        }
      }
      it += 1
    }
    assign
  }

  private def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }
  private def copyTo(src: Array[Double], dst: Array[Double]): Unit =
    System.arraycopy(src, 0, dst, 0, src.length)
}
