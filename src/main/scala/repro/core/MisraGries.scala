package repro.core

import scala.collection.mutable

/** Weighted, mergeable Misra–Gries heavy-hitters sketch (Section 2.3).
  *
  * Holds at most `capacity` counters over integer items (right-vertex
  * indices). The classic guarantee carries over to the weighted /
  * merged setting (Agarwal et al., "Mergeable Summaries"): for every
  * item `j` with true aggregate weight `f_j` in the combined stream of
  * total weight `N`,
  *
  *   `f_j − N / (capacity + 1) ≤ estimate(j) ≤ f_j`.
  *
  * Both `add` and `merge` use the same compaction: when more than
  * `capacity` counters are live, subtract the (capacity+1)-th largest
  * counter value from every counter and drop the non-positive ones.
  * `totalWeight` tracks `N` (the weight actually offered, not the
  * weight surviving compaction) so callers can bound the error.
  */
final class MisraGries private (
    val capacity: Int,
    private val counters: mutable.LongMap[Long],
    private var total: Long,
) extends Serializable {

  require(capacity >= 1, s"capacity must be >= 1, got $capacity")

  /** Total weight offered to this sketch (including merged-in streams). */
  def totalWeight: Long = total

  /** Number of live counters (≤ capacity). */
  def size: Int = counters.size

  /** Lower-bound estimate of item `j`'s aggregate weight. */
  def estimate(j: Int): Long = counters.getOrElse(j.toLong, 0L)

  /** Maximum possible undercount: `totalWeight / (capacity + 1)`. */
  def errorBound: Long = total / (capacity + 1L)

  /** Live (item, counter) pairs. */
  def entries: Iterator[(Int, Long)] =
    counters.iterator.map { case (k, v) => (k.toInt, v) }

  /** The live items and their counters as two parallel arrays, in
    * [[entries]] order, without boxing a tuple per counter.
    */
  def entryArrays: (Array[Int], Array[Long]) = {
    val items = new Array[Int](counters.size)
    val counts = new Array[Long](counters.size)
    var n = 0
    counters.foreachEntry { (k, v) => items(n) = k.toInt; counts(n) = v; n += 1 }
    (items, counts)
  }

  /** The items whose counter is at least `cut`, in no particular order. */
  def itemsAtLeast(cut: Double): Array[Int] = {
    val out = new Array[Int](counters.size)
    var n = 0
    counters.foreachEntry((k, v) => if (v >= cut) { out(n) = k.toInt; n += 1 })
    java.util.Arrays.copyOf(out, n)
  }

  /** Add item `j` with weight `w`. */
  def add(j: Int, w: Long = 1L): Unit = {
    require(w >= 0, s"negative weight $w")
    if (w == 0) return
    counters(j.toLong) = counters.getOrElse(j.toLong, 0L) + w
    total += w
    if (counters.size > capacity) compact()
  }

  /** Add every index of `v` with weight `w` (one left vertex's edges). */
  def addAll(v: SparseVec, w: Long = 1L): Unit = {
    var i = 0
    while (i < v.idx.length) { add(v.idx(i), w); i += 1 }
  }

  /** Merge `other` into this sketch (the `MG_1 ∪ MG_2` of the paper). */
  def merge(other: MisraGries): this.type = {
    other.counters.foreach { case (k, v) =>
      counters(k) = counters.getOrElse(k, 0L) + v
    }
    total += other.total
    if (counters.size > capacity) compact()
    this
  }

  /** Subtract the (capacity+1)-th largest counter value from all
    * counters and drop the non-positive ones. After this at most
    * `capacity` counters remain strictly positive.
    */
  private def compact(): Unit = {
    val values = counters.values.toArray
    java.util.Arrays.sort(values)
    // (capacity+1)-th largest = values[size - capacity - 1]
    val d = values(values.length - capacity - 1)
    val dead = mutable.ArrayBuffer.empty[Long]
    counters.foreachEntry { (k, v) =>
      if (v - d <= 0) dead += k else counters(k) = v - d
    }
    dead.foreach(counters.remove)
  }

  def copy(): MisraGries = {
    val m = mutable.LongMap.empty[Long]
    counters.foreachEntry((k, v) => m(k) = v)
    new MisraGries(capacity, m, total)
  }

  override def toString: String =
    s"MisraGries(cap=$capacity, live=$size, total=$total)"
}

object MisraGries {
  def apply(capacity: Int): MisraGries =
    new MisraGries(capacity, mutable.LongMap.empty[Long], 0L)

  /** Sketch of a single left vertex: all its neighbor indices, weight `w`. */
  def ofVector(v: SparseVec, capacity: Int, w: Long = 1L): MisraGries = {
    val mg = apply(capacity)
    mg.addAll(v, w)
    mg
  }

  /** Rebuild a sketch from serialized state (items, counters, total).
    * The state of a Misra–Gries sketch is exactly its counter map plus
    * the offered-weight total, so this is lossless.
    */
  def restore(capacity: Int, items: Array[Int], counts: Array[Long], total: Long): MisraGries = {
    require(items.length == counts.length)
    val m = mutable.LongMap.empty[Long]
    var i = 0
    while (i < items.length) { m(items(i).toLong) = counts(i); i += 1 }
    val mg = new MisraGries(capacity, m, total)
    if (m.size > capacity) mg.compact()
    mg
  }
}
