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
    var bestTheta = 0.5
    var bestLL = Double.NegativeInfinity
    for (p <- pGrid; q <- qGrid if q < p) {
      val ll = logLikelihood(clusters, nRight, p, q)
      if (ll > bestLL) { bestLL = ll; bestTheta = thetaFor(p, q) }
    }
    bestTheta
  }

  /** Bernoulli log-likelihood of every counter under the pair `(p, q)`:
    * a counter at or above `θ(p,q)·W` counts as in-cluster (rate `p`),
    * one below, or a column absent from the sketch, as out (rate `q`).
    * The four logarithms are taken once per pair.
    */
  private[core] def logLikelihood(clusters: Seq[ClusterCounters], nRight: Int, p: Double, q: Double): Double = {
    val theta = thetaFor(p, q)
    val logP = math.log(p); val log1mP = math.log1p(-p)
    val logQ = math.log(q); val log1mQ = math.log1p(-q)
    var ll = 0.0
    clusters.foreach { c =>
      val w = c.totalWeight.toDouble
      if (w > 0) {
        val cut = theta * w
        var i = 0
        while (i < c.counters.length) {
          val f = c.counters(i).toDouble
          // f successes out of w trials under the rate implied by the
          // θ-induced in/out label.
          ll += (if (f >= cut) f * logP + (w - f) * log1mP else f * logQ + (w - f) * log1mQ)
          i += 1
        }
        // Columns not present in the sketch: zero counters under q.
        val absent = (nRight - c.counters.length).max(0)
        ll += absent * w * log1mQ
      }
    }
    ll
  }

  /** Fit on the raw first-pass centers, one counter profile per center
    * (no k-medians grouping), as the per-center BMF candidates are cut.
    */
  def selectFromCenters(centers: Seq[Sofa.Center], nRight: Int): Double =
    select(
      centers.map(c => ClusterCounters(c.mg.entryArrays._2, c.weight)),
      nRight,
    )
}
