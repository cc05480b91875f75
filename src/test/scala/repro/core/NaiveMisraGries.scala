package repro.core

import scala.collection.mutable

/** Reference Misra–Gries sketch: the hash-map layout [[MisraGries]]
  * replaced, one boxed counter per item in a `LongMap`. Every add and
  * merge goes through the map, and a compaction drops the counters at
  * or below the (capacity+1)-th largest value. `MisraGriesDiffProps`
  * checks that both sketches hold the same (item, counter) set and the
  * same `totalWeight` after any sequence of operations.
  */
final class NaiveMisraGries private (
    val capacity: Int,
    private val counters: mutable.LongMap[Long],
    private var total: Long,
) {

  require(capacity >= 1, s"capacity must be >= 1, got $capacity")

  def totalWeight: Long = total

  def size: Int = counters.size

  def estimate(j: Int): Long = counters.getOrElse(j.toLong, 0L)

  /** Live (item, counter) pairs, in the map's order. */
  def entries: Iterator[(Int, Long)] =
    counters.iterator.map { case (k, v) => (k.toInt, v) }

  def add(j: Int, w: Long = 1L): Unit = {
    require(w >= 0, s"negative weight $w")
    if (w == 0) return
    counters(j.toLong) = counters.getOrElse(j.toLong, 0L) + w
    total += w
    if (counters.size > capacity) compact()
  }

  def addAll(v: SparseVec, w: Long = 1L): Unit = {
    var i = 0
    while (i < v.idx.length) { add(v.idx(i), w); i += 1 }
  }

  def merge(other: NaiveMisraGries): this.type = {
    other.counters.foreach { case (k, v) =>
      counters(k) = counters.getOrElse(k, 0L) + v
    }
    total += other.total
    if (counters.size > capacity) compact()
    this
  }

  private def compact(): Unit = {
    val values = counters.values.toArray
    java.util.Arrays.sort(values)
    val d = values(values.length - capacity - 1)
    val dead = mutable.ArrayBuffer.empty[Long]
    counters.foreachEntry { (k, v) =>
      if (v - d <= 0) dead += k else counters(k) = v - d
    }
    dead.foreach(counters.remove)
  }

  def copy(): NaiveMisraGries = {
    val m = mutable.LongMap.empty[Long]
    counters.foreachEntry((k, v) => m(k) = v)
    new NaiveMisraGries(capacity, m, total)
  }
}

object NaiveMisraGries {
  def apply(capacity: Int): NaiveMisraGries =
    new NaiveMisraGries(capacity, mutable.LongMap.empty[Long], 0L)

  def ofVector(v: SparseVec, capacity: Int, w: Long = 1L): NaiveMisraGries = {
    val mg = apply(capacity)
    mg.addAll(v, w)
    mg
  }

  /** Later duplicates of an item overwrite earlier ones. */
  def restore(capacity: Int, items: Array[Int], counts: Array[Long], total: Long): NaiveMisraGries = {
    require(items.length == counts.length)
    val m = mutable.LongMap.empty[Long]
    var i = 0
    while (i < items.length) { m(items(i).toLong) = counts(i); i += 1 }
    val mg = new NaiveMisraGries(capacity, m, total)
    if (m.size > capacity) mg.compact()
    mg
  }
}
