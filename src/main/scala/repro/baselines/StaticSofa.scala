package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.util.Random

import repro.core.{CenterIndex, LeftVertex, SparseVec}

/** static sofa (Section 6.1): the offline counterpart of sofa, i.e. the
  * algorithm of Neumann (NeurIPS'18) without spectral preprocessing.
  * Clusters *all* left vertices with k-means (Lloyd with majority-vote
  * centers over binary vectors, the Hamming 1-median) and thresholds
  * the *exact* per-cluster column counts at `θ·|U_i|` — no sketching,
  * no streaming, hence an upper bound on what the streaming version can
  * achieve. Implemented as Spark aggregations so it scales to the full
  * dataset (its memory cost is O(m) assignments + O(k·n) counts, which
  * is what makes the static baseline expensive).
  */
object StaticSofa {

  final case class Result(
      rightClusters: Array[SparseVec],
      assignment: Dataset[(Long, Int)],
  )

  // The assignment distance's weight (Section 5.1), the Lloyd round cap
  // and the seed of the initial centers.
  private val Alpha = 0.1
  private val MaxIter = 12
  private val Seed = 77L

  def run(
      left: Dataset[LeftVertex],
      nRight: Int,
      k: Int,
      theta: Double,
  )(implicit spark: SparkSession): Result = {
    import spark.implicits._
    val sample = left.rdd.takeSample(withReplacement = false, num = k, seed = Seed)
    var centers: Array[SparseVec] =
      if (sample.isEmpty) Array.fill(k)(SparseVec.empty)
      else Array.tabulate(k)(i => sample(i % sample.length).vec)
    val rng = new Random(Seed)
    if (sample.nonEmpty && sample.length < k) {
      // Too few vertices: pad with random singletons to keep k centers.
      centers = centers.take(sample.length) ++
        Array.fill(k - sample.length)(SparseVec(rng.nextInt(math.max(1, nRight))))
    }

    var it = 0
    while (it < MaxIter) {
      val next = centers.clone()
      clusterColumns(left, centers)(_ * 2 >= _).foreach { case (c, v) => next(c) = v }
      val changed = !next.indices.forall(i => next(i) == centers(i))
      centers = next
      it += 1
      if (!changed) it = MaxIter
    }

    // Final assignment + exact-count thresholding.
    val assignment = nearest(left, centers).map(a => (a._1, a._2)).cache()
    val rights = Array.fill(k)(SparseVec.empty)
    clusterColumns(left, centers)(_ >= theta * _).foreach { case (c, v) => rights(c) = v }
    Result(rights, assignment)
  }

  /** One aggregation over the vertices' nearest centers: for every
    * non-empty cluster, the columns whose exact count `n` among its
    * `members` vertices passes `keep(n, members)`.
    */
  private def clusterColumns(
      left: Dataset[LeftVertex],
      centers: Array[SparseVec],
  )(keep: (Long, Long) => Boolean)(implicit spark: SparkSession): Array[(Int, SparseVec)] = {
    import spark.implicits._
    nearest(left, centers)
      .groupByKey(_._2)
      .mapGroups { (c, it) =>
        val counts = scala.collection.mutable.LongMap.empty[Long]
        var members = 0L
        it.foreach { case (_, _, nbrs) =>
          members += 1
          nbrs.foreach(j => counts(j.toLong) = counts.getOrElse(j.toLong, 0L) + 1)
        }
        (c, members, counts.toSeq.map { case (j, n) => (j.toInt, n) })
      }
      .collect()
      .map { case (c, members, counts) =>
        (c, SparseVec.fromArray(counts.collect { case (j, n) if keep(n, members) => j }.toArray))
      }
  }

  /** Every vertex as (id, nearest center, neighbors), ties going to the
    * lowest center; each partition indexes the broadcast centers once.
    */
  private def nearest(
      left: Dataset[LeftVertex],
      centers: Array[SparseVec],
  )(implicit spark: SparkSession): Dataset[(Long, Int, Array[Int])] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(centers)
    left.mapPartitions { it =>
      val index = new CenterIndex
      bc.value.foreach(index.add)
      it.map(lv => (lv.u, index.nearest(lv.vec, Alpha), lv.nbrs))
    }
  }
}
