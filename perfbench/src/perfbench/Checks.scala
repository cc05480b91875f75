package perfbench

import scala.collection.mutable

import repro.core.{LeftAssignment, LeftVertex, Metrics, Sofa, SparseVec}

/** Output checks. Each returns the descriptions of the checks that
  * failed; an empty result means the output passed.
  */
object Checks {

  /** The reported quality agrees with the input and with itself. */
  def quality(q: Metrics.BmfQuality, edges: Long): Seq[String] = {
    val recall = q.recall
    Seq(
      (q.ones == edges) -> s"BmfQuality.ones ${q.ones} != edges $edges",
      (recall >= 0.0 && recall <= 1.0) -> s"recall $recall outside [0, 1]",
      (q.relativeHammingGain <= recall) -> s"gain ${q.relativeHammingGain} > recall $recall",
    ).collect { case (false, msg) => msg }
  }

  /** First-pass centers hold every vertex once and fit the budget. */
  def centers(cs: Seq[Sofa.Center], rows: Long, cMax: Int): Seq[String] = {
    val weight = cs.map(_.weight).sum
    Seq(
      (weight == rows) -> s"center weight $weight != |U| $rows",
      (cs.size < cMax) -> s"${cs.size} centers, not < cMax $cMax",
    ).collect { case (false, msg) => msg }
  }

  /** Every vertex is assigned once, to kept clusters only, and TP,
    * cover size and ones recomputed here equal the reported quality.
    */
  def assignments(
      rows: Array[LeftVertex],
      assign: Array[LeftAssignment],
      kept: Array[SparseVec],
      reported: Metrics.BmfQuality,
  ): Seq[String] = {
    val bad = assign.count(_.clusters.exists(i => i < 0 || i >= kept.length))
    val again = recompute(rows, assign, kept)
    Seq(
      (assign.length == rows.length && assign.map(_.u).distinct.length == rows.length) ->
        s"${assign.length} assignments for ${rows.length} vertices",
      (kept.isEmpty || bad == 0) -> s"$bad assignments index past kept.length ${kept.length}",
      (again == reported) -> s"recomputed $again != reported $reported",
    ).collect { case (false, msg) => msg }
  }

  /** TP, cover size and ones from plain sets, independent of
    * `Metrics.bmfQuality` and of `SparseVec`'s set operations.
    */
  def recompute(
      rows: Array[LeftVertex],
      assign: Array[LeftAssignment],
      kept: Array[SparseVec],
  ): Metrics.BmfQuality = {
    val picks = assign.map(a => a.u -> a.clusters).toMap
    var tp = 0L; var cover = 0L; var ones = 0L
    rows.foreach { lv =>
      val covered = mutable.HashSet.empty[Int]
      picks.getOrElse(lv.u, Array.empty[Int]).foreach { i =>
        if (i >= 0 && i < kept.length) covered ++= kept(i).idx
      }
      val nbrs = lv.nbrs.toSet
      tp += nbrs.count(covered)
      cover += covered.size
      ones += nbrs.size
    }
    Metrics.BmfQuality(tp, cover, ones)
  }

  /** A deliberately wrong copy of `assign`: the first vertex that can
    * be given one more kept cluster that widens its cover gets it.
    */
  def corrupt(
      rows: Array[LeftVertex],
      assign: Array[LeftAssignment],
      kept: Array[SparseVec],
  ): Array[LeftAssignment] = {
    val byU = assign.map(a => a.u -> a).toMap
    val target = rows.sortBy(_.u).iterator.flatMap { lv =>
      val a = byU(lv.u)
      val cover = a.clusters.flatMap(kept(_).idx).toSet
      kept.indices.find(c => !a.clusters.contains(c) && kept(c).idx.exists(j => !cover(j)))
        .map(c => a.copy(clusters = a.clusters :+ c))
    }.nextOption()
    target.fold(assign)(t => assign.map(a => if (a.u == t.u) t else a))
  }
}
