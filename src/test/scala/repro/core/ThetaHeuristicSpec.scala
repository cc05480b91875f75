package repro.core

import repro.SparkSpec
import repro.core.ThetaHeuristic.ClusterCounters

class ThetaHeuristicSpec extends SparkSpec {

  test("thetaFor lies strictly between q and p") {
    for (p <- Seq(0.6, 0.8, 0.95); q <- Seq(0.01, 0.05, 0.2) if q < p) {
      val t = ThetaHeuristic.thetaFor(p, q)
      assert(t > q && t < p, s"θ($p,$q)=$t not in ($q,$p)")
    }
  }

  test("thetaFor is the binomial likelihood-ratio crossover") {
    val p = 0.8; val q = 0.05
    val t = ThetaHeuristic.thetaFor(p, q)
    def ll(rate: Double, f: Double, w: Double) =
      f * math.log(rate) + (w - f) * math.log1p(-rate)
    val w = 1000.0
    // Slightly above the threshold p should win; below q should win.
    assert(ll(p, (t + 0.01) * w, w) > ll(q, (t + 0.01) * w, w))
    assert(ll(p, (t - 0.01) * w, w) < ll(q, (t - 0.01) * w, w))
  }

  test("thetaFor rejects invalid rate pairs") {
    intercept[IllegalArgumentException](ThetaHeuristic.thetaFor(0.3, 0.5))
    intercept[IllegalArgumentException](ThetaHeuristic.thetaFor(0.5, 0.0))
  }

  test("select requires at least one cluster") {
    intercept[IllegalArgumentException](ThetaHeuristic.select(Seq.empty, 100))
  }

  test("select separates clean in/out counters") {
    // Cluster of weight 100: 10 columns at ~80 (in), rest absent (out).
    val counters = ClusterCounters(Array.fill(10)(80L), 100L)
    val theta = ThetaHeuristic.select(Seq(counters), nRight = 500)
    // The chosen θ must classify the 80% columns as in-cluster.
    assert(theta < 0.8, s"θ=$theta would drop the true columns")
    assert(theta > 0.05, s"θ=$theta would admit noise")
  }

  test("select adapts to the observed signal rate") {
    def fit(rate: Double): Double = {
      val counters = ClusterCounters(
        Array.fill(12)((rate * 200).toLong) ++ Array.fill(30)(4L), 200L)
      ThetaHeuristic.select(Seq(counters), nRight = 1000)
    }
    val tLow = fit(0.45)
    val tHigh = fit(0.9)
    assert(tLow < 0.45, s"low-signal θ=$tLow must stay below the signal rate")
    assert(tHigh < 0.9, s"high-signal θ=$tHigh must stay below the signal rate")
  }

  test("selectFromCenters runs end-to-end on sofa centers") {
    val inst = TestGraphs.planted(k = 3, ell = 40, n = 300, r = 12,
      p = 0.8, q = 0.003, seed = 9L)
    val cfg = Sofa.Config(3, 12, inst.n, 300)
    val centers = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, cfg)), cfg)
    val theta = ThetaHeuristic.selectFromCenters(centers, inst.n)
    assert(theta > 0.0 && theta < 1.0)
    // The induced clusters should resemble the planted ones.
    val rights = Sofa.postprocessKMedians(centers, cfg, theta)
    assert(Metrics.qualityQRight(inst.rightClusters, rights.toSeq) > 0.5)
  }
}
