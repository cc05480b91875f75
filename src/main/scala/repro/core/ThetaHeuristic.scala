package repro.core

/** sofa-auto's rounding-threshold heuristic (Section 5.4, following the
  * supplement of Neumann, NeurIPS'18).
  *
  * Under the planted model, the counter of a right vertex inside a
  * cluster of weight `W` concentrates around `p·W`, outside around
  * `q·W`. For a candidate pair `(p, q)` the likelihood-ratio rounding
  * threshold is
  *
  *   `θ(p,q) = log((1−q)/(1−p)) / ( log(p/q) + log((1−q)/(1−p)) )`
  *
  * (a counter `f ≥ θ·W` is more likely under Binomial(W,p) than under
  * Binomial(W,q)). The heuristic grid-searches `(p, q)`, scores each
  * pair by the Bernoulli log-likelihood of the observed counters when
  * columns are labeled in/out by the induced `θ`, and returns the `θ`
  * of the best-scoring pair.
  */
object ThetaHeuristic {

  /** Counter profile of one (merged) cluster sketch. */
  final case class ClusterCounters(counters: Array[Long], totalWeight: Long)

  val DefaultPGrid: Seq[Double] = (35 to 95 by 5).map(_ / 100.0)
  val DefaultQGrid: Seq[Double] = Seq(0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)

  /** Likelihood-ratio threshold for a (p, q) pair. */
  def thetaFor(p: Double, q: Double): Double = {
    require(p > q && p < 1.0 && q > 0.0, s"need 0 < q < p < 1, got p=$p q=$q")
    val a = math.log((1.0 - q) / (1.0 - p))
    val b = math.log(p / q)
    a / (a + b)
  }

  /** Pick θ maximizing the counter likelihood over the (p, q) grid.
    *
    * @param clusters one counter profile per (candidate) cluster
    * @param nRight   total number of right vertices (columns absent
    *                 from a sketch are treated as zero counters)
    */
  def select(
      clusters: Seq[ClusterCounters],
      nRight: Int,
      pGrid: Seq[Double] = DefaultPGrid,
      qGrid: Seq[Double] = DefaultQGrid,
  ): Double = {
    require(clusters.nonEmpty, "no clusters to fit θ on")
    val pairs = (for (p <- pGrid; q <- qGrid if q < p) yield (p, q)).toArray
    val ll = logLikelihoods(clusters, nRight, pairs)
    var bestTheta = 0.5
    var bestLL = Double.NegativeInfinity
    var t = 0
    while (t < pairs.length) {
      if (ll(t) > bestLL) { bestLL = ll(t); bestTheta = thetaFor(pairs(t)._1, pairs(t)._2) }
      t += 1
    }
    bestTheta
  }

  /** Bernoulli log-likelihood of every counter under the pair `(p, q)`. */
  private[core] def logLikelihood(clusters: Seq[ClusterCounters], nRight: Int, p: Double, q: Double): Double =
    logLikelihoods(clusters, nRight, Array((p, q)))(0)

  /** The log-likelihood of every counter under each pair `(p, q)`: a
    * counter at or above `θ(p,q)·W` counts as in-cluster (rate `p`),
    * one below, or a column absent from the sketch, as out (rate `q`).
    *
    * One pass over the counters with the pair loop inside: per cluster
    * the cuts are taken once, then each counter's term is added to
    * every pair's sum. A pair's sum therefore receives the same terms in
    * the same order as a pass over the counters for that pair alone.
    * The four logarithms are taken once per pair.
    */
  private def logLikelihoods(
      clusters: Seq[ClusterCounters],
      nRight: Int,
      pairs: Array[(Double, Double)],
  ): Array[Double] = {
    val n = pairs.length
    val theta = pairs.map { case (p, q) => thetaFor(p, q) }
    val logP = pairs.map(pq => math.log(pq._1)); val log1mP = pairs.map(pq => math.log1p(-pq._1))
    val logQ = pairs.map(pq => math.log(pq._2)); val log1mQ = pairs.map(pq => math.log1p(-pq._2))
    val ll = new Array[Double](n)
    val cut = new Array[Double](n)
    clusters.foreach { c =>
      val w = c.totalWeight.toDouble
      if (w > 0) {
        var t = 0
        while (t < n) { cut(t) = theta(t) * w; t += 1 }
        var i = 0
        while (i < c.counters.length) {
          val f = c.counters(i).toDouble
          val g = w - f
          // f successes out of w trials under the rate implied by the
          // θ-induced in/out label.
          t = 0
          while (t < n) {
            ll(t) += (if (f >= cut(t)) f * logP(t) + g * log1mP(t) else f * logQ(t) + g * log1mQ(t))
            t += 1
          }
          i += 1
        }
        // Columns not present in the sketch: zero counters under q.
        val absent = (nRight - c.counters.length).max(0)
        t = 0
        while (t < n) { ll(t) += absent * w * log1mQ(t); t += 1 }
      }
    }
    ll
  }

  /** Fit on the raw first-pass centers, one counter profile per center
    * (no k-medians grouping), as the per-center BMF candidates are cut.
    */
  def selectFromCenters(centers: Seq[Sofa.Center], nRight: Int): Double =
    select(
      centers.map(c => ClusterCounters(c.mg.counts, c.weight)),
      nRight,
    )
}
