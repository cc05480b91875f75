package repro.core

import org.apache.spark.sql.SparkSession

import repro.SparkSpec
import repro.data.Bipartite

class SofaDistributedSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private lazy val planted = Bipartite.planted(spark, Bipartite.PlantedParams(
    k = 5, ell = 60, n = 800, r = 15, p = 0.9, expectedNoiseDeg = 3.0, seed = 19L))
  private lazy val left = planted.left.cache()

  private def cfg(k: Int = 5): Sofa.Config =
    Sofa.Config(k = k, cMax = 6 * k, nRight = planted.nRight, mgCapacity = 400)

  test("firstPass preserves the total stream weight") {
    val centers = SofaDistributed.firstPass(left, cfg())
    assert(centers.map(_.weight).sum == left.count())
  }

  test("firstPass returns fewer than cMax centers") {
    val c = cfg()
    val centers = SofaDistributed.firstPass(left, c)
    assert(centers.length < c.cMax)
  }

  test("firstPass sketches account for every edge") {
    val centers = SofaDistributed.firstPass(left, cfg())
    val edges = Bipartite.stats(left, planted.nRight).edges
    assert(centers.map(_.mg.totalWeight).sum == edges)
  }

  test("distributed quality is close to the sequential pass") {
    val c = cfg()
    val centersDist = SofaDistributed.firstPass(left, c)
    val rightsDist = Sofa.postprocessKMedians(centersDist, c, 0.5)
    val qDist = Metrics.qualityQRight(planted.rightClusters.toSeq, rightsDist.toSeq)

    val localVectors = left.collect().sortBy(_.u).map(_.vec)
    val centersSeq = Sofa.cluster(localVectors.iterator.map(Sofa.freshItem(_, c)), c)
    val rightsSeq = Sofa.postprocessKMedians(centersSeq, c, 0.5)
    val qSeq = Metrics.qualityQRight(planted.rightClusters.toSeq, rightsSeq.toSeq)

    assert(qDist > 0.7, s"distributed Q=$qDist too low (sequential Q=$qSeq)")
    assert(qDist > qSeq - 0.25, s"distributed Q=$qDist far below sequential Q=$qSeq")
  }

  test("biclusterPipeline recovers planted clusters on both sides") {
    val (rights, assign) = SofaDistributed.biclusterPipeline(left, cfg(), theta = 0.5)
    val qRight = Metrics.qualityQRight(planted.rightClusters.toSeq, rights.toSeq)
    val qLeft = Metrics.qualityQLeft(planted.leftTruth, assign)
    assert(qRight > 0.7, s"right Q=$qRight")
    assert(qLeft > 0.7, s"left Q=$qLeft")
  }

  test("bmfPipeline returns one result per theta, best gain first") {
    val results = SofaDistributed.bmfPipeline(left, cfg(), Seq(0.4, 0.6))
    assert(results.length == 2)
    assert(results.head.quality.relativeHammingGain >=
      results.last.quality.relativeHammingGain)
    assert(results.forall(_.rightClusters.length <= cfg().k))
  }

  test("bmfPipeline achieves positive gain on planted data") {
    val results = SofaDistributed.bmfPipeline(left, cfg(), Seq(0.5))
    assert(results.head.quality.relativeHammingGain > 0.3,
      s"gain=${results.head.quality.relativeHammingGain}")
  }

  test("bmfAutoPipeline picks a workable theta automatically") {
    val res = SofaDistributed.bmfAutoPipeline(left, cfg())
    assert(res.theta > 0.0 && res.theta < 1.0)
    assert(res.quality.relativeHammingGain > 0.2,
      s"auto θ=${res.theta} gain=${res.quality.relativeHammingGain}")
  }

  /** The per-θ decomposition the fused pipeline replaces: candidates,
    * naive greedy-cover scores summed on the driver, stable top-k, the
    * naive cover by the kept clusters, then `Metrics.bmfQuality`.
    */
  private def reference(centers: IndexedSeq[Sofa.Center], theta: Double, k: Int) = {
    import s.implicits._
    val rows = left.collect()
    val cand = Sofa.postprocessPerCenter(centers, theta).filter(_.nnz > 0)
    val scores = new Array[Long](cand.length)
    rows.foreach { lv =>
      NaiveCover.coverVertexWithScores(lv.vec, cand).foreach { case (i, sc) => scores(i) += sc }
    }
    val kept = cand.indices.sortBy(i => -scores(i)).take(k).sorted.map(cand).toArray
    val assign = rows.map(lv => LeftAssignment(lv.u, NaiveCover.coverVertex(lv.vec, kept)))
    val q = Metrics.bmfQuality(left, s.createDataset(assign.toSeq), kept)
    (theta, kept.toSeq, q, assign.map(a => a.u -> a.clusters.toSeq).sortBy(_._1).toSeq)
  }

  private def flat(r: SofaDistributed.BmfResult) =
    (r.theta, r.rightClusters.toSeq, r.quality,
      r.assignments.collect().map(a => a.u -> a.clusters.toSeq).sortBy(_._1).toSeq)

  test("bmfPipeline equals the per-theta decomposition with the naive cover") {
    val c = cfg()
    val thetas = Seq(0.3, 0.4, 0.5, 0.6, 0.7, 1.5)
    val centers = SofaDistributed.firstPass(left, c)
    val expected = thetas.map(reference(centers, _, c.k)).sortBy(r => -r._3.relativeHammingGain)
    val got = SofaDistributed.bmfPipeline(left, c, thetas).map(flat)
    assert(got.map(_._1) == expected.map(_._1))
    got.zip(expected).foreach { case (g, e) =>
      assert(g._2 == e._2, s"kept clusters at θ=${g._1}")
      assert(g._3 == e._3, s"quality at θ=${g._1}")
      assert(g._4 == e._4, s"assignments at θ=${g._1}")
    }
  }

  test("bmfAutoPipeline equals the decomposition at the heuristic theta") {
    val c = cfg()
    val centers = SofaDistributed.firstPass(left, c)
    val theta = ThetaHeuristic.selectFromCenters(centers, c.nRight)
    assert(flat(SofaDistributed.bmfAutoPipeline(left, c)) == reference(centers, theta, c.k))
  }

  test("a theta without candidates keeps nothing and scores (0, 0, edges)") {
    val edges = Bipartite.stats(left, planted.nRight).edges
    val r = SofaDistributed.bmfPipeline(left, cfg(), Seq(1.5)).head
    assert(r.rightClusters.isEmpty)
    assert(r.quality == Metrics.BmfQuality(0L, 0L, edges))
    assert(r.assignments.collect().forall(_.clusters.isEmpty))
  }

  test("PortableCenter round-trips a center") {
    val c = cfg()
    val center = Sofa.freshItem(SparseVec(1, 5, 9), c)
    center.weight = 7
    val back = PortableCenter.from(center).toCenter(c.mgCapacity)
    assert(back.vec == center.vec)
    assert(back.weight == 7)
    assert(back.mg.entries.toMap == center.mg.entries.toMap)
  }
}
