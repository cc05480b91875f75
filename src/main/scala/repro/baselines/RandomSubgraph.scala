package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{LeftVertex, SparseVec}

/** The static→streaming reduction of Section 5.5.
  *
  * First pass: reservoir-sample `m̃` left vertices, restrict to the `ñ`
  * incident right vertices with the highest degree (within the sample),
  * run a static biclustering algorithm on the sampled subgraph, then
  * attach each remaining incident right vertex to the cluster whose
  * average left-neighborhood is closest. Produces right clusters in the
  * original vertex space; the second pass (left clusters) is shared
  * with sofa (`repro.core.SecondPass`).
  */
object RandomSubgraph {

  /** @param mTilde sampled left vertices (paper: 15000)
    * @param nTilde retained right vertices (paper: 15000)
    */
  final case class Config(mTilde: Int, nTilde: Int, seed: Long = 61L)

  /** A static biclustering algorithm: (sampled rows over a compact
    * column space, #columns, k) → clusters of local column indices.
    */
  type StaticAlgo = (Array[SparseVec], Int, Int) => Array[Array[Int]]

  /** Size of the dense state the reduction holds (for Table 5):
    * sampled rows + the m̃-dimensional average-neighborhood vectors.
    */
  final case class Run(rightClusters: Array[SparseVec], sampledRows: Int, retainedCols: Int)

  def rightClusters(
      left: Dataset[LeftVertex],
      k: Int,
      cfg: Config,
      algo: StaticAlgo,
  )(implicit spark: SparkSession): Run = {
    // Reservoir-style uniform sample of left vertices.
    val sample: Array[LeftVertex] =
      left.rdd.takeSample(withReplacement = false, num = cfg.mTilde, seed = cfg.seed)

    // Degrees of incident right vertices within the sample.
    val degree = scala.collection.mutable.LongMap.empty[Int]
    sample.foreach(_.nbrs.foreach(v => degree(v.toLong) = degree.getOrElse(v.toLong, 0) + 1))
    val vPrime: Array[Int] = degree.keysIterator.map(_.toInt).toArray.sorted
    if (vPrime.isEmpty) return Run(Array.fill(k)(SparseVec.empty), sample.length, 0)

    // V'' = the ñ highest-degree vertices of V' (ties broken by id).
    val vKeep: Array[Int] = vPrime
      .sortBy(v => (-degree(v.toLong), v))
      .take(cfg.nTilde)
      .sorted
    val colOf: Map[Int, Int] = vKeep.zipWithIndex.toMap

    // Sampled rows restricted to V'' in compact column coordinates.
    val rows: Array[SparseVec] = sample.map { lv =>
      SparseVec.fromArray(lv.nbrs.collect { case v if colOf.contains(v) => colOf(v) })
    }
    val localClusters: Array[Array[Int]] = algo(rows, vKeep.length, k)
    val global: Array[scala.collection.mutable.ArrayBuffer[Int]] =
      localClusters.map(c => scala.collection.mutable.ArrayBuffer.from(c.map(vKeep)))

    // Attach the low-degree leftovers V' ∖ V'' by average-neighborhood
    // distance: x_v ∈ {0,1}^m̃ (incidence over the sample), cluster
    // centroid x_i = mean of member x_v, assign v to argmin ||x_i − x_v||.
    val leftovers = vPrime.filterNot(colOf.contains)
    if (leftovers.nonEmpty && global.exists(_.nonEmpty)) {
      // Incidence lists of every v in V' over sample rows.
      val incident = scala.collection.mutable.LongMap.empty[scala.collection.mutable.ArrayBuffer[Int]]
      sample.zipWithIndex.foreach { case (lv, i) =>
        lv.nbrs.foreach { v =>
          incident.getOrElseUpdate(v.toLong, scala.collection.mutable.ArrayBuffer.empty) += i
        }
      }
      val mT = sample.length
      val centroids: Array[Array[Double]] = global.map { members =>
        val c = new Array[Double](mT)
        var cnt = 0
        members.foreach { v =>
          incident.get(v.toLong).foreach { rowsOfV => rowsOfV.foreach(i => c(i) += 1.0); cnt += 1 }
        }
        if (cnt > 0) { var i = 0; while (i < mT) { c(i) /= cnt; i += 1 } }
        c
      }
      val cNorm2 = centroids.map(c => LinAlg.dot(c, c))
      leftovers.foreach { v =>
        val inc = incident.getOrElse(v.toLong, scala.collection.mutable.ArrayBuffer.empty)
        var best = 0; var bestD = Double.MaxValue
        var i = 0
        while (i < centroids.length) {
          if (global(i).nonEmpty) {
            // ||c − x||² = ||c||² − 2·Σ_{row∈x} c(row) + |x|
            var dotCX = 0.0
            inc.foreach(r => dotCX += centroids(i)(r))
            val d = cNorm2(i) - 2.0 * dotCX + inc.length
            if (d < bestD) { bestD = d; best = i }
          }
          i += 1
        }
        global(best) += v
      }
    }
    Run(global.map(b => SparseVec.fromArray(b.toArray)), sample.length, vKeep.length)
  }
}
