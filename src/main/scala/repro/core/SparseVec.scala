package repro.core

/** Sparse binary vector over column indices `[0, n)`.
  *
  * Left-side vertices of the bipartite graph are identified with their
  * neighborhood indicator vectors `x_u ∈ {0,1}^n` (Section 3 of the
  * paper); with average degree far below `n`, a sorted distinct index
  * array is the right representation: Hamming distance, intersections
  * and unions are linear merges over the non-zeros.
  *
  * @param idx strictly increasing column indices of the 1-entries
  */
final class SparseVec private (val idx: Array[Int]) extends Serializable {

  /** Number of non-zero entries (the vertex degree). */
  def nnz: Int = idx.length

  def isEmpty: Boolean = idx.length == 0

  /** Membership test by binary search. */
  def contains(j: Int): Boolean = java.util.Arrays.binarySearch(idx, j) >= 0

  /** Classic (symmetric) Hamming distance `|A △ B|`. */
  def hamming(other: SparseVec): Int = {
    val inter = intersectSize(other)
    nnz + other.nnz - 2 * inter
  }

  /** Asymmetric weighted Hamming distance of Section 5.1.
    *
    * `this` plays the role of the *center* `c`, `point` the incoming
    * vertex `u`: entries with `x_u=1, x_c=0` cost 1, entries with
    * `x_c=1, x_u=0` cost `alpha < 1` (promoting dense centers), matches
    * cost 0. `alpha = 1` recovers the symmetric Hamming distance.
    */
  def asymDistTo(point: SparseVec, alpha: Double): Double = {
    val inter = intersectSize(point)
    (point.nnz - inter).toDouble + alpha * (nnz - inter).toDouble
  }

  /** `|A ∩ B|` via a linear merge of the sorted index arrays. */
  def intersectSize(other: SparseVec): Int = {
    val a = idx; val b = other.idx
    var i = 0; var j = 0; var c = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { c += 1; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    c
  }

  /** Set union as a new vector. */
  def union(other: SparseVec): SparseVec = {
    val a = idx; val b = other.idx
    val out = new Array[Int](a.length + b.length)
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { out(k) = a(i); i += 1; j += 1 }
      else if (a(i) < b(j)) { out(k) = a(i); i += 1 }
      else { out(k) = b(j); j += 1 }
      k += 1
    }
    while (i < a.length) { out(k) = a(i); i += 1; k += 1 }
    while (j < b.length) { out(k) = b(j); j += 1; k += 1 }
    new SparseVec(java.util.Arrays.copyOf(out, k))
  }

  /** Set difference `A ∖ B` as a new vector. */
  def diff(other: SparseVec): SparseVec = {
    val a = idx; val b = other.idx
    val out = new Array[Int](a.length)
    var i = 0; var j = 0; var k = 0
    while (i < a.length) {
      while (j < b.length && b(j) < a(i)) j += 1
      if (j >= b.length || b(j) != a(i)) { out(k) = a(i); k += 1 }
      i += 1
    }
    new SparseVec(java.util.Arrays.copyOf(out, k))
  }

  def toSet: Set[Int] = idx.toSet

  override def equals(o: Any): Boolean = o match {
    case v: SparseVec => java.util.Arrays.equals(idx, v.idx)
    case _            => false
  }
  override def hashCode: Int = java.util.Arrays.hashCode(idx)
  override def toString: String = idx.mkString("SparseVec(", ",", ")")
}

object SparseVec {
  val empty: SparseVec = new SparseVec(Array.emptyIntArray)

  /** Build from possibly unsorted, possibly duplicated indices. */
  def apply(indices: Iterable[Int]): SparseVec = fromArray(indices.toArray)

  def apply(indices: Int*): SparseVec = fromArray(indices.toArray)

  /** Build from an index array; sorts and deduplicates defensively. */
  def fromArray(indices: Array[Int]): SparseVec = {
    if (indices.isEmpty) return empty
    val a = indices.clone()
    java.util.Arrays.sort(a)
    var k = 1
    var i = 1
    while (i < a.length) {
      if (a(i) != a(k - 1)) { a(k) = a(i); k += 1 }
      i += 1
    }
    new SparseVec(java.util.Arrays.copyOf(a, k))
  }

  /** Trusted constructor: `indices` must already be sorted and distinct. */
  private[core] def fromSortedDistinct(indices: Array[Int]): SparseVec = new SparseVec(indices)
}
