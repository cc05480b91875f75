package repro.core

import org.apache.spark.sql.SparkSession

import repro.SparkSpec
import repro.baselines.StaticSofa
import repro.data.Bipartite

/** Integration tests backing the synthetic experiments of Section 6.1
  * (the data behind Figure 1, which itself is out of scope): sofa's
  * recovery quality on planted graphs tracks the static baseline and
  * improves with the signal strength p.
  */
class SofaPlantedSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private def instance(p: Double, r: Int = 12, seed: Long = 41L) =
    Bipartite.planted(spark, Bipartite.PlantedParams(
      k = 5, ell = 40, n = 600, r = r, p = p, expectedNoiseDeg = 4.0, seed = seed))

  private def sofaQ(planted: Bipartite.Planted, counters: Int = 400): Double = {
    val cfg = Sofa.Config(k = 5, cMax = 30, nRight = planted.nRight, mgCapacity = counters)
    val centers = SofaDistributed.firstPass(planted.left, cfg)
    val rights = Sofa.postprocessKMedians(centers, cfg, 0.5)
    Metrics.qualityQRight(planted.rightClusters.toSeq, rights.toSeq)
  }

  test("quality improves with the signal strength p (Figure 1a shape)") {
    val qLow = sofaQ(instance(p = 0.55))
    val qHigh = sofaQ(instance(p = 0.9))
    assert(qHigh > qLow - 0.05, s"qHigh=$qHigh should not trail qLow=$qLow")
    assert(qHigh > 0.7, s"high-signal recovery too weak: $qHigh")
  }

  test("sofa stays within a modest gap of static sofa (Figure 1 ranking)") {
    val planted = instance(p = 0.8)
    val left = planted.left.cache()
    val qSofa = sofaQ(planted)
    val staticRes = StaticSofa.run(left, planted.nRight, k = 5, theta = 0.5)
    val qStatic = Metrics.qualityQRight(
      planted.rightClusters.toSeq, staticRes.rightClusters.toSeq)
    assert(qSofa > qStatic - 0.3, s"sofa=$qSofa static=$qStatic")
    left.unpersist()
  }

  test("larger right clusters are easier to recover (Figure 1d shape)") {
    val qSmall = sofaQ(instance(p = 0.8, r = 8, seed = 43L))
    val qLarge = sofaQ(instance(p = 0.8, r = 25, seed = 43L))
    assert(qLarge > qSmall - 0.1, s"large-r Q=$qLarge vs small-r Q=$qSmall")
  }

  test("too few sketch counters degrade recovery (Figure 1e, r=50 effect)") {
    val planted = instance(p = 0.8, r = 30, seed = 44L)
    val qMany = sofaQ(planted, counters = 600)
    val qFew = sofaQ(planted, counters = 12)
    assert(qMany >= qFew - 0.05, s"many=$qMany few=$qFew")
  }

  test("left-side recovery tracks right-side recovery (Figure 1b shape)") {
    val planted = instance(p = 0.9, seed = 45L)
    val cfg = Sofa.Config(k = 5, cMax = 30, nRight = planted.nRight, mgCapacity = 400)
    val (rights, assign) = SofaDistributed.biclusterPipeline(planted.left, cfg, theta = 0.5)
    val qRight = Metrics.qualityQRight(planted.rightClusters.toSeq, rights.toSeq)
    val qLeft = Metrics.qualityQLeft(planted.leftTruth, assign)
    assert(qRight > 0.7 && qLeft > 0.6, s"right=$qRight left=$qLeft")
  }
}
