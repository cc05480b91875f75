package repro.core

import java.util.Arrays

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
  *
  * The counters live unboxed in two parallel arrays: `items` ascending
  * and `counters`, of which the first `live` slots are in use. Reads
  * return items in ascending order; a merge is one sorted merge.
  */
final class MisraGries private (
    val capacity: Int,
    private var items: Array[Int],
    private var counters: Array[Long],
    private var live: Int,
    private var total: Long,
) extends Serializable {

  require(capacity >= 1, s"capacity must be >= 1, got $capacity")

  /** Total weight offered to this sketch (including merged-in streams). */
  def totalWeight: Long = total

  /** Number of live counters (≤ capacity). */
  def size: Int = live

  /** Lower-bound estimate of item `j`'s aggregate weight. */
  def estimate(j: Int): Long = {
    val i = Arrays.binarySearch(items, 0, live, j)
    if (i >= 0) counters(i) else 0L
  }

  /** Maximum possible undercount: `totalWeight / (capacity + 1)`. */
  def errorBound: Long = total / (capacity + 1L)

  /** Live (item, counter) pairs, in ascending item order. */
  def entries: Iterator[(Int, Long)] = {
    val (is, cs) = entryArrays
    Iterator.range(0, is.length).map(i => (is(i), cs(i)))
  }

  /** The live items and their counters as two parallel arrays, in
    * [[entries]] order, without boxing a tuple per counter.
    */
  def entryArrays: (Array[Int], Array[Long]) =
    (Arrays.copyOf(items, live), Arrays.copyOf(counters, live))

  /** The live counters, in [[entries]] order. */
  def counts: Array[Long] = Arrays.copyOf(counters, live)

  /** The items whose counter is at least `cut`, ascending. */
  def itemsAtLeast(cut: Double): Array[Int] = {
    val out = new Array[Int](live)
    var n = 0
    var i = 0
    while (i < live) {
      if (counters(i) >= cut) { out(n) = items(i); n += 1 }
      i += 1
    }
    Arrays.copyOf(out, n)
  }

  /** Add item `j` with weight `w`. */
  def add(j: Int, w: Long = 1L): Unit = {
    require(w >= 0, s"negative weight $w")
    if (w == 0) return
    total += w
    val i = Arrays.binarySearch(items, 0, live, j)
    if (i >= 0) counters(i) += w
    else {
      val at = -i - 1
      reserve(live + 1)
      System.arraycopy(items, at, items, at + 1, live - at)
      System.arraycopy(counters, at, counters, at + 1, live - at)
      items(at) = j
      counters(at) = w
      live += 1
      if (live > capacity) compact()
    }
  }

  /** Add every index of `v` with weight `w` (one left vertex's edges). */
  def addAll(v: SparseVec, w: Long = 1L): Unit = {
    var i = 0
    while (i < v.idx.length) { add(v.idx(i), w); i += 1 }
  }

  /** Merge `other` into this sketch (the `MG_1 ∪ MG_2` of the paper):
    * one sorted merge, written back to front so that it needs no
    * second buffer. When every item of `other` is already live, it
    * adds the counters in place.
    */
  def merge(other: MisraGries): this.type = {
    val oi = other.items; val oc = other.counters; val on = other.live
    var missing = 0
    var a = 0; var b = 0
    while (b < on) {
      while (a < live && items(a) < oi(b)) a += 1
      if (a < live && items(a) == oi(b)) a += 1 else missing += 1
      b += 1
    }
    reserve(live + missing)
    a = live - 1; b = on - 1
    var out = live + missing - 1
    while (b >= 0) {
      if (a >= 0 && items(a) > oi(b)) {
        items(out) = items(a); counters(out) = counters(a); a -= 1
      } else if (a >= 0 && items(a) == oi(b)) {
        items(out) = items(a); counters(out) = counters(a) + oc(b); a -= 1; b -= 1
      } else {
        items(out) = oi(b); counters(out) = oc(b); b -= 1
      }
      out -= 1
    }
    live += missing
    total += other.total
    if (live > capacity) compact()
    this
  }

  /** Room for `n` counters. */
  private def reserve(n: Int): Unit =
    if (n > items.length) {
      val len = math.max(n, math.min(2 * items.length, capacity + 1))
      items = Arrays.copyOf(items, len)
      counters = Arrays.copyOf(counters, len)
    }

  /** Subtract the (capacity+1)-th largest counter value from all
    * counters and drop the non-positive ones. After this at most
    * `capacity` counters remain strictly positive.
    */
  private def compact(): Unit = {
    val values = Arrays.copyOf(counters, live)
    Arrays.sort(values)
    // (capacity+1)-th largest = values[live - capacity - 1]
    val d = values(live - capacity - 1)
    var n = 0
    var i = 0
    while (i < live) {
      val v = counters(i) - d
      if (v > 0) { items(n) = items(i); counters(n) = v; n += 1 }
      i += 1
    }
    live = n
  }

  def copy(): MisraGries =
    new MisraGries(capacity, Arrays.copyOf(items, live), Arrays.copyOf(counters, live), live, total)

  override def toString: String =
    s"MisraGries(cap=$capacity, live=$size, total=$total)"
}

object MisraGries {
  def apply(capacity: Int): MisraGries =
    new MisraGries(capacity, Array.emptyIntArray, Array.emptyLongArray, 0, 0L)

  /** Sketch of a single left vertex: all its neighbor indices, weight
    * `w`. It equals adding the indices one by one: they are distinct
    * and of equal weight, so every compaction (at `capacity + 1` equal
    * counters) drops all of them, and the last `nnz mod (capacity + 1)`
    * indices survive.
    */
  def ofVector(v: SparseVec, capacity: Int, w: Long = 1L): MisraGries = {
    if (v.isEmpty) return apply(capacity)
    require(w >= 0, s"negative weight $w")
    if (w == 0) return apply(capacity)
    val kept = v.nnz % (capacity + 1)
    val counts = new Array[Long](kept)
    Arrays.fill(counts, w)
    new MisraGries(capacity, Arrays.copyOfRange(v.idx, v.nnz - kept, v.nnz), counts, kept, w * v.nnz)
  }

  /** Rebuild a sketch from serialized state (items, counters, total).
    * The state of a Misra–Gries sketch is exactly its counter map plus
    * the offered-weight total, so this is lossless. Items in ascending
    * order are copied as they are; otherwise they are sorted, and a
    * repeated item keeps its last counter.
    */
  def restore(capacity: Int, items: Array[Int], counts: Array[Long], total: Long): MisraGries = {
    require(items.length == counts.length)
    var ascending = true
    var i = 1
    while (ascending && i < items.length) { ascending = items(i - 1) < items(i); i += 1 }
    val mg =
      if (ascending) new MisraGries(capacity, items.clone(), counts.clone(), items.length, total)
      else {
        // A stable sort by item; each run of a repeated item keeps its last.
        val order = items.indices.sortBy(items(_))
        val kept = order.indices.collect {
          case k if k + 1 == order.length || items(order(k + 1)) != items(order(k)) => order(k)
        }
        new MisraGries(capacity, kept.map(items).toArray, kept.map(counts).toArray, kept.length, total)
      }
    if (mg.live > capacity) mg.compact()
    mg
  }
}
