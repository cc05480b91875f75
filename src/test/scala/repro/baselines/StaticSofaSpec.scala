package repro.baselines

import org.apache.spark.sql.SparkSession

import repro.SparkSpec
import repro.core.{LeftAssignment, Metrics, SecondPass}
import repro.data.Bipartite

class StaticSofaSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private lazy val planted = Bipartite.planted(spark, Bipartite.PlantedParams(
    k = 4, ell = 50, n = 400, r = 12, p = 0.9, expectedNoiseDeg = 3.0, seed = 29L))
  private lazy val left = planted.left.cache()

  test("assignment covers every left vertex exactly once") {
    val res = StaticSofa.run(left, planted.nRight, k = 4, theta = 0.5)
    val a = res.assignment.collect()
    assert(a.length == left.count())
    assert(a.map(_._1).distinct.length == a.length)
  }

  test("right clusters recover the planted clusters (upper-bound baseline)") {
    val res = StaticSofa.run(left, planted.nRight, k = 4, theta = 0.5)
    val q = Metrics.qualityQRight(planted.rightClusters.toSeq, res.rightClusters.toSeq)
    assert(q > 0.8, s"static sofa right Q=$q")
  }

  test("left clusters recover the planted partition") {
    import s.implicits._
    val res = StaticSofa.run(left, planted.nRight, k = 4, theta = 0.5)
    val found = res.assignment.map { case (u, c) => LeftAssignment(u, Array(c)) }
    val q = Metrics.qualityQLeft(planted.leftTruth, found)
    assert(q > 0.8, s"static sofa left Q=$q")
  }

  test("static sofa is at least as good as streaming sofa on the same data") {
    import repro.core.{Sofa, SofaDistributed}
    val cfg = Sofa.Config(k = 4, cMax = 24, nRight = planted.nRight, mgCapacity = 400)
    val centers = SofaDistributed.firstPass(left, cfg)
    val rightsStream = Sofa.postprocessKMedians(centers, cfg, 0.5)
    val qStream = Metrics.qualityQRight(planted.rightClusters.toSeq, rightsStream.toSeq)
    val res = StaticSofa.run(left, planted.nRight, k = 4, theta = 0.5)
    val qStatic = Metrics.qualityQRight(planted.rightClusters.toSeq, res.rightClusters.toSeq)
    // The paper's consistent finding: static sofa upper-bounds sofa
    // (allow a small tolerance for randomized seeding).
    assert(qStatic >= qStream - 0.1, s"static=$qStatic stream=$qStream")
  }

  test("higher theta yields smaller (or equal) right clusters") {
    val lo = StaticSofa.run(left, planted.nRight, k = 4, theta = 0.3)
    val hi = StaticSofa.run(left, planted.nRight, k = 4, theta = 0.8)
    assert(lo.rightClusters.map(_.nnz).sum >= hi.rightClusters.map(_.nnz).sum)
  }

  test("works when k exceeds the number of vertices") {
    import s.implicits._
    val tiny = s.createDataset(Seq(
      repro.core.LeftVertex(0L, Array(0, 1)),
      repro.core.LeftVertex(1L, Array(2, 3)),
    ))
    val res = StaticSofa.run(tiny, 5, k = 4, theta = 0.5)
    assert(res.rightClusters.length == 4)
    assert(res.assignment.collect().length == 2)
  }
}

class RandomSubgraphSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private lazy val planted = Bipartite.planted(spark, Bipartite.PlantedParams(
    k = 4, ell = 60, n = 300, r = 12, p = 0.9, expectedNoiseDeg = 2.0, seed = 31L))
  private lazy val left = planted.left.cache()

  test("sampling respects mTilde and nTilde") {
    val run = RandomSubgraph.rightClusters(
      left, k = 4, RandomSubgraph.Config(mTilde = 50, nTilde = 40),
      (rows, nCols, k) => Spectral.dhillon(rows, nCols, k))
    assert(run.sampledRows == 50)
    assert(run.retainedCols <= 40)
  }

  test("sample larger than the dataset uses everything") {
    val run = RandomSubgraph.rightClusters(
      left, k = 4, RandomSubgraph.Config(mTilde = 100000, nTilde = 100000),
      (rows, nCols, k) => Spectral.dhillon(rows, nCols, k))
    assert(run.sampledRows == left.count())
  }

  test("clusters live in the original right-vertex id space") {
    val run = RandomSubgraph.rightClusters(
      left, k = 4, RandomSubgraph.Config(150, 150),
      (rows, nCols, k) => Spectral.dhillon(rows, nCols, k))
    run.rightClusters.foreach { v =>
      assert(v.idx.forall(j => j >= 0 && j < planted.nRight))
    }
  }

  test("leftover vertices are attached: clusters jointly cover all incident vertices") {
    val cfgSmallN = RandomSubgraph.Config(mTilde = 120, nTilde = 30)
    val run = RandomSubgraph.rightClusters(left, 4, cfgSmallN,
      (rows, nCols, k) => Spectral.dhillon(rows, nCols, k))
    // All vertices incident to the sample appear in some cluster.
    val covered = run.rightClusters.flatMap(_.idx).toSet
    assert(covered.size > 30, "low-degree leftovers must be attached too")
  }

  test("RSdhillon with a full sample recovers planted structure with gain > 0") {
    // Dense instance: every right vertex belongs to some planted block
    // (n ≈ k·r), so Dhillon's column partition is not noise-diluted.
    // With the whole graph sampled the reduction degenerates to plain
    // Dhillon and must find the blocks well enough for positive gain.
    val dense = Bipartite.planted(spark, Bipartite.PlantedParams(
      k = 4, ell = 60, n = 50, r = 12, p = 0.9, expectedNoiseDeg = 1.0, seed = 32L))
    val denseLeft = dense.left.cache()
    val run = RandomSubgraph.rightClusters(denseLeft,
      4, RandomSubgraph.Config(mTilde = 1000000, nTilde = 1000000),
      (rows, nCols, k) => Spectral.dhillon(rows, nCols, k))
    val q = SecondPass.coverQuality(denseLeft, Seq(run.rightClusters)).head
    assert(q.relativeHammingGain > 0.1, s"gain=${q.relativeHammingGain}")
    denseLeft.unpersist()
  }

  test("subsampled RS clusters are diluted by attached noise columns (paper's weakness)") {
    // Under aggressive subsampling the attached leftovers blow the
    // clusters up far beyond the planted size — the mechanism behind
    // the near-zero RS gains on sparse datasets in Tables 2–3.
    val run = RandomSubgraph.rightClusters(left, 4, RandomSubgraph.Config(150, 150),
      (rows, nCols, k) => Spectral.dhillon(rows, nCols, k))
    val q = SecondPass.coverQuality(left, Seq(run.rightClusters)).head
    assert(q.relativeHammingGain >= 0.0 && q.relativeHammingGain < 0.5)
    assert(run.rightClusters.map(_.nnz).max > 12, "clusters should be noise-diluted")
  }

  test("the reduction is deterministic in the seed") {
    def go() = RandomSubgraph.rightClusters(left, 4, RandomSubgraph.Config(100, 80, seed = 5),
      (rows, nCols, k) => Spectral.zha(rows, nCols, k))
    val a = go(); val b = go()
    assert(a.rightClusters.map(_.toSet).toSeq == b.rightClusters.map(_.toSet).toSeq)
  }
}
