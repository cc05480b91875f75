package repro.baselines

import repro.core.{NaiveCover, SparseVec}

/** Reference for one row of an Asso gain round, the loop basso ran
  * before it read [[repro.core.GreedyCover]]'s counters: replay the
  * row's usage of the chosen candidates with [[NaiveCover.score]] and
  * `SparseVec.union`, then score every candidate against the cover.
  */
object NaiveAsso {

  /** The chosen candidates the usage rule takes for `g`, in order, and
    * the union `Y` of them.
    */
  def usage(g: SparseVec, cands: Array[SparseVec], chosen: Array[Int]): (Array[Int], SparseVec) = {
    val picked = scala.collection.mutable.ArrayBuffer.empty[Int]
    var y = SparseVec.empty
    chosen.foreach { t =>
      if (NaiveCover.score(cands(t), g, y) > 0) {
        picked += t
        y = y.union(cands(t))
      }
    }
    (picked.toArray, y)
  }

  /** Every candidate's `max(0, score(c | g, y))`. */
  def gains(g: SparseVec, cands: Array[SparseVec], y: SparseVec): Array[Long] =
    cands.map(c => math.max(0, NaiveCover.score(c, g, y)).toLong)
}
