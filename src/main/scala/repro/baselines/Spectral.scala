package repro.baselines

import repro.core.SparseVec

/** The two static spectral biclustering baselines of Section 6, both
  * operating on a small bipartite subgraph (rows = sampled left
  * vertices as sparse indicator vectors over `[0, nCols)`).
  *
  * - [[dhillon]]: co-clustering of documents and words (Dhillon,
  *   KDD'01) — normalize `A_n = D1^{-1/2} A D2^{-1/2}`, take the top
  *   `ℓ = ⌈log2 k⌉ + 1` singular vectors, embed rows and columns
  *   jointly as `[D1^{-1/2}U ; D2^{-1/2}V]`, k-means in the joint
  *   space; report the column-side clusters.
  * - [[zha]]: bipartite graph partitioning (Zha et al., CIKM'01) —
  *   same normalization, but k-means on the `k`-dimensional scaled
  *   *right* singular-vector embedding only.
  *
  * Both return `k` (possibly empty) clusters of column indices.
  */
object Spectral {

  // Each method's seed for both its SVD start and its k-means.
  private val DhillonSeed = 31L
  private val ZhaSeed = 37L

  def dhillon(rows: Array[SparseVec], nCols: Int, k: Int): Array[Array[Int]] = {
    if (rows.isEmpty || nCols == 0) return Array.fill(k)(Array.emptyIntArray)
    val an = normalized(rows, nCols)
    val ell = math.max(2, ceilLog2(k) + 1)
    val svd = LinAlg.truncatedSvd(an.matrix, ell, seed = DhillonSeed)
    // Drop the trivial leading singular vector; embed rows and columns.
    val useDims = (1 until math.min(ell, svd.s.length)).toArray
    val dims = if (useDims.isEmpty) Array(0) else useDims
    val points = new Array[Array[Double]](rows.length + nCols)
    var i = 0
    while (i < rows.length) {
      points(i) = dims.map(d => svd.u(d)(i) * an.d1InvSqrt(i))
      i += 1
    }
    var j = 0
    while (j < nCols) {
      points(rows.length + j) = dims.map(d => svd.v(d)(j) * an.d2InvSqrt(j))
      j += 1
    }
    val assign = LinAlg.kmeans(points, k, seed = DhillonSeed)
    columnsByCluster(assign.drop(rows.length), k)
  }

  def zha(rows: Array[SparseVec], nCols: Int, k: Int): Array[Array[Int]] = {
    if (rows.isEmpty || nCols == 0) return Array.fill(k)(Array.emptyIntArray)
    val an = normalized(rows, nCols)
    val ell = math.max(2, k)
    val svd = LinAlg.truncatedSvd(an.matrix, ell, seed = ZhaSeed)
    val dims = svd.s.indices.toArray
    val points = Array.tabulate(nCols) { j =>
      dims.map(d => svd.v(d)(j) * an.d2InvSqrt(j))
    }
    val assign = LinAlg.kmeans(points, k, seed = ZhaSeed)
    columnsByCluster(assign, k)
  }

  /** Degree-normalized biadjacency `D1^{-1/2} A D2^{-1/2}` with the
    * scaling vectors kept for the embedding step.
    */
  private final case class Normalized(
      matrix: LinAlg.SparseMatrix,
      d1InvSqrt: Array[Double],
      d2InvSqrt: Array[Double],
  )

  private def normalized(rows: Array[SparseVec], nCols: Int): Normalized = {
    val d1 = rows.map(_.nnz.toDouble)
    val d2 = new Array[Double](nCols)
    rows.foreach(_.idx.foreach(j => d2(j) += 1.0))
    val d1i = d1.map(d => if (d > 0) 1.0 / math.sqrt(d) else 0.0)
    val d2i = d2.map(d => if (d > 0) 1.0 / math.sqrt(d) else 0.0)
    val rowVal = Array.tabulate(rows.length) { i =>
      rows(i).idx.map(j => d1i(i) * d2i(j))
    }
    Normalized(
      LinAlg.SparseMatrix(rows.length, nCols, rows.map(_.idx), rowVal),
      d1i, d2i,
    )
  }

  private def columnsByCluster(colAssign: Array[Int], k: Int): Array[Array[Int]] = {
    val out = Array.fill(k)(scala.collection.mutable.ArrayBuffer.empty[Int])
    var j = 0
    while (j < colAssign.length) {
      val c = colAssign(j)
      if (c >= 0 && c < k) out(c) += j
      j += 1
    }
    out.map(_.toArray)
  }

  private def ceilLog2(k: Int): Int = {
    var v = 1; var b = 0
    while (v < k) { v <<= 1; b += 1 }
    b
  }
}
