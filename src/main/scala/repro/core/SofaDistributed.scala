package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

/** Distributed first pass of sofa.
  *
  * The paper's conclusion notes that sofa's two building blocks —
  * coreset-style center sets and Misra–Gries sketches — are both
  * mergeable, which is exactly what a Spark dataflow needs: each
  * partition runs the sequential Algorithm 2 over its slice of the
  * vertex stream and emits at most `cMax` weighted centers with their
  * sketches; the driver then runs the *same* algorithm over the
  * concatenation of all per-partition center streams (this is the
  * paper's restart-on-centers mechanism used as a merge operator), and
  * finishes with the usual postprocessing. Total state is
  * `O(partitions · cMax · s)` during the map and `O(cMax · s)` at the
  * driver — sublinear in the number of edges.
  */
object SofaDistributed {

  /** First pass: vertex stream in, surviving weighted centers out.
    *
    * One Spark job ([[PartitionJob]]): a partition map over `left.rdd`
    * whose centers come back as [[PortableCenter]]s in the ordinary task
    * results, then the driver merge. Rejects a vertex with a column
    * `≥ cfg.nRight`.
    */
  def firstPass(
      left: Dataset[LeftVertex],
      cfg: Sofa.Config,
  ): IndexedSeq[Sofa.Center] = {
    val partCenters: Array[Array[PortableCenter]] = PartitionJob.run(left.rdd) { it =>
      Sofa.cluster(it.map(lv => Sofa.freshItem(checkedVec(lv, cfg.nRight), cfg)), cfg)
        .iterator.map(PortableCenter.from).toArray
    }
    // Merge: replay all per-partition centers, in partition order,
    // through the same sequential algorithm on the driver.
    Sofa.cluster(partCenters.iterator.flatten.map(_.toCenter(cfg.mgCapacity)), cfg)
  }

  /** `lv.vec`, rejecting a vertex with a column outside `[0, nRight)`. */
  private def checkedVec(lv: LeftVertex, nRight: Int): SparseVec = {
    val v = lv.vec
    require(v.isEmpty || v.idx.last < nRight,
      s"left vertex ${lv.u}: neighbor index ${v.idx.last} is not below nRight = $nRight")
    v
  }

  /** Full biclustering pipeline (Sections 3.2 + 4.1 + 5.2): first pass,
    * k-medians postprocessing at threshold `theta`, second pass.
    */
  def biclusterPipeline(
      left: Dataset[LeftVertex],
      cfg: Sofa.Config,
      theta: Double,
  )(implicit spark: SparkSession): (Array[SparseVec], Dataset[LeftAssignment]) = {
    val centers = firstPass(left, cfg)
    val rights = Sofa.postprocessKMedians(centers, cfg, theta)
    (rights, SecondPass.assignBicluster(left, rights))
  }

  /** Result of the BMF pipeline for one threshold. `assignments` is
    * built on its first read and then kept: a line search outputs one
    * θ's factorization, so the others never pay for theirs.
    */
  final class BmfResult(
      val theta: Double,
      val rightClusters: Array[SparseVec],
      assign: => Dataset[LeftAssignment],
      val quality: Metrics.BmfQuality,
  ) {
    lazy val assignments: Dataset[LeftAssignment] = assign
  }

  object BmfResult {
    def apply(
        theta: Double,
        rightClusters: Array[SparseVec],
        assignments: => Dataset[LeftAssignment],
        quality: Metrics.BmfQuality,
    ): BmfResult = new BmfResult(theta, rightClusters, assignments, quality)
  }

  /** Full BMF pipeline (Sections 3.2 + 4.2 + 5.3): first pass, then for
    * every threshold in `thetas` the per-center candidate clusters,
    * top-k selection by accumulated cover score, second pass, and
    * quality evaluation. The line-searched `sofa` uses several
    * thresholds; `sofa-auto` passes the single heuristic θ.
    *
    * @return results for every θ, best (by relative Hamming gain) first
    */
  def bmfPipeline(
      left: Dataset[LeftVertex],
      cfg: Sofa.Config,
      thetas: Seq[Double],
  )(implicit spark: SparkSession): Seq[BmfResult] =
    bmfFromCenters(left, firstPass(left, cfg), cfg.k, thetas)
      .sortBy(r => -r.quality.relativeHammingGain)

  /** sofa-auto (Section 5.4): fit θ with the likelihood heuristic on
    * the first-pass centers, then run the BMF pipeline at that θ only.
    */
  def bmfAutoPipeline(
      left: Dataset[LeftVertex],
      cfg: Sofa.Config,
  )(implicit spark: SparkSession): BmfResult = {
    val centers = firstPass(left, cfg)
    val theta = ThetaHeuristic.selectFromCenters(centers, cfg.nRight)
    bmfFromCenters(left, centers, cfg.k, Seq(theta)).head
  }

  /** The BMF second pass for all thresholds at once (Sections 5.3–5.4),
    * in two Spark jobs over `left`: one scores every θ's per-center
    * candidates by greedy cover, the driver keeps each θ's top `k`, and
    * one job covers with the kept clusters of every θ and sums TP,
    * cover size and edges. Each θ's assignments are a dataset of the
    * same cover, built (one broadcast) only when first read. A θ without candidates keeps no cluster and
    * scores `BmfQuality(0, 0, edges)`.
    *
    * @return one result per θ, in the order of `thetas`
    */
  def bmfFromCenters(
      left: Dataset[LeftVertex],
      centers: IndexedSeq[Sofa.Center],
      k: Int,
      thetas: Seq[Double],
  )(implicit spark: SparkSession): Seq[BmfResult] = {
    val candidates = thetas.map(t => Sofa.postprocessPerCenter(centers, t).filter(_.nnz > 0))
    val scores = SecondPass.coverScores(left, candidates)
    val kept = candidates.zip(scores).map { case (c, s) => SecondPass.topK(s, k).map(c) }
    val quality = SecondPass.coverQuality(left, kept)
    thetas.indices.map { t =>
      BmfResult(thetas(t), kept(t), SecondPass.coverAssignments(left, kept(t)), quality(t))
    }
  }
}

/** Wire form of a center in the first pass's task results: the
  * representative's indices, the weight, and the sketch entries. The
  * sketch is rebuilt with the same capacity on arrival (Misra–Gries
  * state is exactly its counter map).
  */
final case class PortableCenter(
    vecIdx: Array[Int],
    weight: Long,
    mgItems: Array[Int],
    mgCounts: Array[Long],
    mgTotal: Long,
) {
  def toCenter(mgCapacity: Int): Sofa.Center =
    new Sofa.Center(
      SparseVec.fromSortedDistinct(vecIdx),
      weight,
      MisraGries.restore(mgCapacity, mgItems, mgCounts, mgTotal),
    )
}

object PortableCenter {
  def from(c: Sofa.Center): PortableCenter = {
    val (items, counts) = c.mg.entryArrays
    PortableCenter(c.vec.idx, c.weight, items, counts, c.mg.totalWeight)
  }
}
