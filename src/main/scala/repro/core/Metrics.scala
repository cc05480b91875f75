package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

/** Quality measures of Section 6.
  *
  * - `qualityQ`: mean best-Jaccard against planted ground truth
  *   (synthetic experiments, Figure 1).
  * - `bmfQuality`: relative Hamming gain and recall of the Boolean
  *   reconstruction `B̃ = L ∘ R` against the biadjacency matrix `B`
  *   (real-world experiments, Tables 2–3). Computed as one distributed
  *   pass over the left vertices: with the right clusters broadcast,
  *   each vertex contributes its true positives `|Γ(u) ∩ cover(u)|`,
  *   its cover size and its degree.
  */
object Metrics {

  /** `Q = (1/k) Σ_i max_j J(U_i, Ũ_j)` for collections of sets. */
  def qualityQ(truth: Seq[Set[Long]], found: Seq[Set[Long]]): Double = {
    if (truth.isEmpty) return 0.0
    val scores = truth.map { t =>
      if (found.isEmpty) 0.0
      else found.map(f => jaccard(t, f)).max
    }
    scores.sum / truth.size
  }

  def jaccard[A](a: Set[A], b: Set[A]): Double = {
    val inter = a.intersect(b).size
    val union = a.size + b.size - inter
    if (union == 0) 1.0 else inter.toDouble / union
  }

  /** `Q` for right clusters given as sparse index vectors. */
  def qualityQRight(truth: Seq[SparseVec], found: Seq[SparseVec]): Double =
    qualityQ(truth.map(_.idx.map(_.toLong).toSet), found.map(_.idx.map(_.toLong).toSet))

  /** `Q` for distributed left-cluster assignments: builds the
    * contingency table with one aggregation, then scores on the driver
    * (k × k' is tiny).
    */
  def qualityQLeft(
      truthAssign: Dataset[(Long, Int)],
      foundAssign: Dataset[LeftAssignment],
  )(implicit spark: SparkSession): Double = {
    import spark.implicits._
    val pairs = truthAssign
      .joinWith(foundAssign, truthAssign("_1") === foundAssign("u"))
      .flatMap { case ((_, gt), a) => a.clusters.map(c => (gt, c)) }
      .groupByKey(identity)
      .count()
      .collect()
    val truthSizes = truthAssign.groupByKey(_._2).count().collect().toMap
    val foundSizes = foundAssign
      .flatMap(a => a.clusters)
      .groupByKey(identity)
      .count()
      .collect()
      .toMap
    if (truthSizes.isEmpty) return 0.0
    val byTruth = pairs.groupBy(_._1._1)
    truthSizes.map { case (gt, tSize) =>
      val best = byTruth.getOrElse(gt, Array.empty).map { case ((_, f), inter) =>
        val union = tSize + foundSizes.getOrElse(f, 0L) - inter
        if (union == 0) 1.0 else inter.toDouble / union
      }
      if (best.isEmpty) 0.0 else best.max
    }.sum / truthSizes.size
  }

  /** Aggregate BMF reconstruction quality. */
  final case class BmfQuality(
      truePositives: Long,
      coverSize: Long, // |B̃| = number of 1s in the reconstruction
      ones: Long,      // |B| = number of edges
  ) {
    /** `1 − |B ⊕ B̃| / |B|` (Section 6.2). */
    def relativeHammingGain: Double =
      if (ones == 0) 0.0
      else 1.0 - ((ones - truePositives) + (coverSize - truePositives)).toDouble / ones
    /** `|B ∧ B̃| / |B|`. */
    def recall: Double = if (ones == 0) 0.0 else truePositives.toDouble / ones
  }

  /** Compute gain/recall for assignments `L` (vertex → cluster ids) and
    * right clusters `R`. `cover(u) = ∪_{i ∈ L(u)} Ṽ_i`. The per-vertex
    * counts are summed on the executors; the driver receives one triple
    * per partition.
    */
  def bmfQuality(
      left: Dataset[LeftVertex],
      assignments: Dataset[LeftAssignment],
      rightClusters: Array[SparseVec],
  )(implicit spark: SparkSession): BmfQuality = {
    val bc = spark.sparkContext.broadcast(rightClusters)
    val add = (a: (Long, Long, Long), b: (Long, Long, Long)) => (a._1 + b._1, a._2 + b._2, a._3 + b._3)
    val pairs = left.joinWith(assignments, left("u") === assignments("u")).rdd
    val (tp, cov, ones) = PartitionJob.run(pairs) { it =>
      it.map { case (lv, a) =>
        val vs = bc.value
        var cover = SparseVec.empty
        a.clusters.foreach(i => cover = cover.union(vs(i)))
        val g = lv.vec
        (g.intersectSize(cover).toLong, cover.nnz.toLong, g.nnz.toLong)
      }.foldLeft((0L, 0L, 0L))(add)
    }.foldLeft((0L, 0L, 0L))(add)
    BmfQuality(tp, cov, ones)
  }
}
