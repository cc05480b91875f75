package repro.core

import repro.core.ThetaHeuristic.ClusterCounters

/** Reference θ fit of sofa-auto: [[ThetaHeuristic.select]] with the
  * logarithms taken once per counter. The property suite checks that
  * the fit with the logarithms taken once per (p, q) pair gives the
  * same log-likelihood for every pair and the same θ, bit for bit.
  */
object NaiveTheta {

  def select(
      clusters: Seq[ClusterCounters],
      nRight: Int,
      pGrid: Seq[Double],
      qGrid: Seq[Double],
  ): Double = {
    require(clusters.nonEmpty, "no clusters to fit θ on")
    var bestTheta = 0.5
    var bestLL = Double.NegativeInfinity
    for (p <- pGrid; q <- qGrid if q < p) {
      val ll = logLikelihood(clusters, nRight, p, q)
      if (ll > bestLL) { bestLL = ll; bestTheta = ThetaHeuristic.thetaFor(p, q) }
    }
    bestTheta
  }

  def logLikelihood(clusters: Seq[ClusterCounters], nRight: Int, p: Double, q: Double): Double = {
    val theta = ThetaHeuristic.thetaFor(p, q)
    var ll = 0.0
    clusters.foreach { c =>
      val w = c.totalWeight.toDouble
      if (w > 0) {
        val cut = theta * w
        var i = 0
        while (i < c.counters.length) {
          val f = c.counters(i).toDouble
          val pp = if (f >= cut) p else q
          ll += f * math.log(pp) + (w - f) * math.log1p(-pp)
          i += 1
        }
        val absent = (nRight - c.counters.length).max(0)
        ll += absent * w * math.log1p(-q)
      }
    }
    ll
  }
}
