package repro.data

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import scala.util.Random

import repro.core.{LeftVertex, SparseVec}

/** Synthetic bipartite graphs.
  *
  * Two generators:
  *
  * 1. [[Bipartite.planted]] — the random model of Section 2.1: `k`
  *    disjoint left clusters of `ell` vertices, right clusters of size
  *    `r` drawn uniformly from `[0, n)`, edge probability `p` inside a
  *    block and `q` outside. Used by the synthetic experiments and the
  *    Theorem-1 tests.
  * 2. [[Bipartite.surrogate]] — scaled stand-ins for the six real-world
  *    datasets of Table 1 (see DESIGN.md §4 for the substitution
  *    rationale): overlapping planted blocks plus Zipf-skewed noise
  *    with a log-normal per-vertex activity, tuned to match the paper's
  *    average left degree with a heavy right tail.
  *
  * All draws are deterministic in `(params, seed)`: every left vertex
  * seeds its own SplitMix64 from `(seed, u)`, so the rows are
  * independent of partitioning. The rows come in [[Slices]] partitions
  * on every Spark master, because sofa's first pass depends on them.
  */
object Bipartite {

  /** The generators' partition count: what Spark's default gives on the
    * 4-core hosts that recorded every table and benchmark value.
    */
  val Slices: Int = 4

  /** Ground truth of a planted instance. */
  final case class Planted(
      left: Dataset[LeftVertex],
      leftTruth: Dataset[(Long, Int)],
      rightClusters: Array[SparseVec],
      nRight: Int,
  )

  /** Parameters of the Section 2.1 model. */
  final case class PlantedParams(
      k: Int = 50,
      ell: Int = 200,
      n: Int = 8000,
      r: Int = 30,
      p: Double = 0.7,
      expectedNoiseDeg: Double = 20.0,
      seed: Long = 7L,
  ) {
    def m: Long = k.toLong * ell
    /** `q` such that each left vertex expects `expectedNoiseDeg` noise edges. */
    def q: Double = math.min(1.0, expectedNoiseDeg / math.max(1, n - r))
  }

  def planted(spark: SparkSession, pp: PlantedParams): Planted = {
    import spark.implicits._
    val rng = new Random(pp.seed)
    val rights: Array[Array[Int]] =
      Array.fill(pp.k)(distinctDraws(rng, pp.r, pp.n))
    val bc = spark.sparkContext.broadcast(rights)
    val (k, ell, n, p, q, seed) = (pp.k, pp.ell, pp.n, pp.p, pp.q, pp.seed)
    val left = spark.range(0, pp.m, 1, Slices).as[Long].map { u =>
      val g = new SplitMix64(seed ^ (u * 0x9E3779B97F4A7C15L))
      val cluster = (u / ell).toInt
      val mine = bc.value(cluster)
      val nbrs = scala.collection.mutable.ArrayBuffer.empty[Int]
      var i = 0
      while (i < mine.length) { if (g.nextDouble() < p) nbrs += mine(i); i += 1 }
      // Noise edges: Bernoulli(q) process over all of V via skip sampling.
      val myset = mine.toSet
      var j = skipNext(g, q, -1)
      while (j < n) {
        if (!myset.contains(j)) nbrs += j
        j = skipNext(g, q, j)
      }
      LeftVertex(u, nbrs.distinct.sorted.toArray)
    }
    val truth = spark.range(0, pp.m, 1, Slices).as[Long].map(u => (u, (u / ell).toInt))
    Planted(left, truth, rights.map(SparseVec.fromArray), pp.n)
  }

  // -------------------------------------------------------------------
  // Real-world surrogates
  // -------------------------------------------------------------------

  /** Shape parameters for a surrogate dataset. `paperU/V/E` are the
    * original Table-1 values; the generated graph is at `1/scale`.
    */
  final case class SurrogateSpec(
      name: String,
      paperU: Long,
      paperV: Long,
      paperE: Long,
      paperAvgDeg: Int,
      paperP99: Int,
      scale: Int,
      blocks: Int,            // planted (overlapping) right blocks
      blockSize: Int,         // vertices per right block
      memberProb: Double,     // P(left vertex joins a given block)
      pIn: Double,            // edge prob inside a joined block
      noiseMeanDeg: Double,   // mean Zipf-noise edges per left vertex
      activitySigma: Double,  // log-normal sigma of per-vertex activity
      seed: Long,
  ) {
    def mU: Int = math.max(1, (paperU / scale).toInt)
    def nV: Int = math.max(1, (paperV / scale).toInt)
  }

  /** The six datasets of Table 1, scaled 1/50. Parameters are tuned so
    * that the generated average left degree tracks the paper's and the
    * noise tail produces a P99 well above the average.
    */
  val Surrogates: Map[String, SurrogateSpec] = Seq(
    SurrogateSpec("20News", 18773L, 61056L, 1766780L, 94, 548,
      scale = 50, blocks = 40, blockSize = 25, memberProb = 0.075, pIn = 0.8,
      noiseMeanDeg = 34.0, activitySigma = 1.1, seed = 101L),
    SurrogateSpec("Reuters", 38677L, 19757L, 978446L, 25, 498,
      scale = 50, blocks = 40, blockSize = 15, memberProb = 0.04, pIn = 0.8,
      noiseMeanDeg = 5.8, activitySigma = 1.5, seed = 102L),
    SurrogateSpec("Book", 105282L, 340550L, 1149779L, 11, 174,
      scale = 50, blocks = 40, blockSize = 20, memberProb = 0.02, pIn = 0.5,
      noiseMeanDeg = 6.8, activitySigma = 1.6, seed = 103L),
    SurrogateSpec("Movie", 138493L, 26744L, 20000263L, 144, 1113,
      scale = 50, blocks = 40, blockSize = 40, memberProb = 0.1, pIn = 0.85,
      noiseMeanDeg = 8.0, activitySigma = 1.0, seed = 104L),
    SurrogateSpec("Flickr", 395979L, 103631L, 8545307L, 22, 268,
      scale = 50, blocks = 40, blockSize = 20, memberProb = 0.05, pIn = 0.7,
      noiseMeanDeg = 7.4, activitySigma = 1.4, seed = 105L),
    SurrogateSpec("Wiki", 1562433L, 1170854L, 19753078L, 17, 177,
      scale = 50, blocks = 40, blockSize = 20, memberProb = 0.04, pIn = 0.7,
      noiseMeanDeg = 4.8, activitySigma = 1.3, seed = 106L),
  ).map(s => s.name -> s).toMap

  /** Generate the surrogate graph for `name` (see [[Surrogates]]). */
  def surrogate(spark: SparkSession, name: String): Planted =
    surrogate(spark, Surrogates.getOrElse(
      name, sys.error(s"unknown surrogate dataset '$name'; know ${Surrogates.keys.mkString(", ")}")))

  def surrogate(spark: SparkSession, s: SurrogateSpec): Planted = {
    import spark.implicits._
    val rng = new Random(s.seed)
    val n = s.nV
    val rights: Array[Array[Int]] =
      Array.fill(s.blocks)(distinctDraws(rng, math.min(s.blockSize, n), n))
    val bc = spark.sparkContext.broadcast(rights)
    val spec = s
    val left = spark.range(0, s.mU.toLong, 1, Slices).as[Long].map { u =>
      val g = new SplitMix64(spec.seed ^ (u * 0x9E3779B97F4A7C15L))
      val nbrs = scala.collection.mutable.ArrayBuffer.empty[Int]
      // Overlapping block memberships.
      var b = 0
      while (b < spec.blocks) {
        if (g.nextDouble() < spec.memberProb) {
          val block = bc.value(b)
          var i = 0
          while (i < block.length) {
            if (g.nextDouble() < spec.pIn) nbrs += block(i)
            i += 1
          }
        }
        b += 1
      }
      // Zipf-skewed noise with log-normal per-vertex activity, which
      // produces both the right-degree skew and the heavy left tail.
      val activity = math.exp(spec.activitySigma * g.nextGaussian() -
        spec.activitySigma * spec.activitySigma / 2.0)
      val cnt = poisson(g, spec.noiseMeanDeg * activity)
      var c = 0
      while (c < cnt) {
        nbrs += logUniform(g, n)
        c += 1
      }
      LeftVertex(u, nbrs.distinct.sorted.toArray)
    }
    // Surrogates have no single-membership ground truth; leftTruth maps
    // every vertex to its first (lowest-index) block or -1.
    val truth = left.map(lv => (lv.u, -1))
    Planted(left, truth, rights.map(SparseVec.fromArray), n)
  }

  // -------------------------------------------------------------------
  // Stats (Table 1)
  // -------------------------------------------------------------------

  final case class DatasetStats(
      mU: Long, nV: Long, edges: Long,
      density: Double, avgDeg: Double, p99Deg: Int,
  )

  /** Degree-based dataset statistics over the left side. */
  def stats(left: Dataset[LeftVertex], nV: Int)(implicit spark: SparkSession): DatasetStats = {
    import spark.implicits._
    val degs = left.map(_.nbrs.length).collect().sorted
    val m = degs.length.toLong
    val e = degs.map(_.toLong).sum
    val p99 = if (m == 0) 0 else degs(math.min(m - 1, math.ceil(0.99 * m).toLong - 1).toInt)
    DatasetStats(m, nV, e,
      if (m == 0 || nV == 0) 0.0 else e.toDouble / (m.toDouble * nV),
      if (m == 0) 0.0 else e.toDouble / m,
      p99)
  }

  /** Exploded (u, v) edge list — the representation the DuckDB oracle
    * checks query against.
    */
  def edgesDf(left: Dataset[LeftVertex])(implicit spark: SparkSession): DataFrame = {
    import spark.implicits._
    left.flatMap(lv => lv.nbrs.map(v => (lv.u, v))).toDF("u", "v")
  }

  // -------------------------------------------------------------------
  // Deterministic sampling helpers
  // -------------------------------------------------------------------

  /** `count` distinct uniform draws from `[0, n)`, sorted. */
  def distinctDraws(rng: Random, count: Int, n: Int): Array[Int] = {
    require(count <= n, s"cannot draw $count distinct values from [0,$n)")
    val seen = scala.collection.mutable.LinkedHashSet.empty[Int]
    while (seen.size < count) seen += rng.nextInt(n)
    seen.toArray.sorted
  }

  /** Skip sampling for a Bernoulli(q) process: next success index
    * strictly after `j`, possibly ≥ n (caller stops).
    */
  private def skipNext(g: SplitMix64, q: Double, j: Int): Int = {
    if (q <= 0.0) return Int.MaxValue
    if (q >= 1.0) return j + 1
    val u = math.max(g.nextDouble(), 1e-300)
    j + 1 + (math.log(u) / math.log1p(-q)).toInt
  }

  /** Poisson draw: Knuth for small mean, normal approximation above. */
  private def poisson(g: SplitMix64, mean: Double): Int = {
    if (mean <= 0) 0
    else if (mean < 30) {
      val l = math.exp(-mean)
      var k = 0; var p = 1.0
      while ({ p *= g.nextDouble(); p > l }) k += 1
      k
    } else math.max(0, math.round(mean + math.sqrt(mean) * g.nextGaussian()).toInt)
  }

  /** Log-uniform ("Zipf(1)-like") draw from [0, n). */
  private def logUniform(g: SplitMix64, n: Int): Int = {
    val x = math.exp(g.nextDouble() * math.log(n.toDouble + 1.0)) - 1.0
    math.min(n - 1, math.max(0, x.toInt))
  }
}

/** Deterministic 64-bit SplitMix generator — cheap, seedable per
  * element, identical on driver and executors.
  */
final class SplitMix64(seed0: Long) extends Serializable {
  private var state: Long = seed0

  def nextLong(): Long = {
    state += 0x9E3779B97F4A7C15L
    var z = state
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform in [0, 1). */
  def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16

  /** Standard normal via Box–Muller. */
  def nextGaussian(): Double = {
    val u1 = math.max(nextDouble(), 1e-300)
    val u2 = nextDouble()
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  def nextInt(bound: Int): Int = {
    require(bound > 0)
    ((nextLong() >>> 1) % bound).toInt
  }
}
