package repro.data

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.SparseVec

class BipartiteSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private lazy val pp = Bipartite.PlantedParams(
    k = 4, ell = 50, n = 500, r = 12, p = 0.8, expectedNoiseDeg = 5.0, seed = 23L)
  private lazy val planted = Bipartite.planted(spark, pp)

  test("planted graph has the requested number of left vertices") {
    assert(planted.left.count() == pp.m)
  }

  test("planted right clusters have the requested size and range") {
    assert(planted.rightClusters.length == pp.k)
    planted.rightClusters.foreach { v =>
      assert(v.nnz == pp.r)
      assert(v.idx.forall(j => j >= 0 && j < pp.n))
    }
  }

  test("left truth assigns ell vertices per cluster") {
    val counts = planted.leftTruth.collect().groupBy(_._2).view.mapValues(_.length).toMap
    assert(counts == (0 until pp.k).map(_ -> pp.ell).toMap)
  }

  test("generation is deterministic") {
    val again = Bipartite.planted(spark, pp)
    val a = planted.left.collect().sortBy(_.u).map(_.nbrs.toSeq)
    val b = again.left.collect().sortBy(_.u).map(_.nbrs.toSeq)
    assert(a.toSeq == b.toSeq)
  }

  test("every planted and surrogate dataset has Slices partitions, whatever the master") {
    val sets = (planted +: Bipartite.Surrogates.keys.toSeq.sorted.map(Bipartite.surrogate(spark, _)))
    sets.foreach { p =>
      assert(p.left.rdd.getNumPartitions == Bipartite.Slices)
    }
    assert(planted.leftTruth.rdd.getNumPartitions == Bipartite.Slices)
  }

  test("generation is independent of partitioning") {
    val repart = Bipartite.planted(spark, pp).left.repartition(13)
    val a = planted.left.collect().sortBy(_.u).map(_.nbrs.toSeq)
    val b = repart.collect().sortBy(_.u).map(_.nbrs.toSeq)
    assert(a.toSeq == b.toSeq)
  }

  test("neighbor lists are sorted and distinct") {
    planted.left.collect().foreach { lv =>
      assert(lv.nbrs.toSeq == lv.nbrs.toSeq.sorted.distinct)
    }
  }

  test("in-cluster degree concentrates around p*r") {
    val truth = planted.leftTruth.collect().toMap
    val rights = planted.rightClusters
    val inDegs = planted.left.collect().map { lv =>
      lv.vec.intersectSize(rights(truth(lv.u)))
    }
    val mean = inDegs.map(_.toDouble).sum / inDegs.length
    assert(math.abs(mean - pp.p * pp.r) < 1.0, s"mean in-degree $mean vs ${pp.p * pp.r}")
  }

  test("noise degree concentrates around the requested expectation") {
    val truth = planted.leftTruth.collect().toMap
    val rights = planted.rightClusters
    val noiseDegs = planted.left.collect().map { lv =>
      lv.nbrs.length - lv.vec.intersectSize(rights(truth(lv.u)))
    }
    val mean = noiseDegs.map(_.toDouble).sum / noiseDegs.length
    assert(math.abs(mean - pp.expectedNoiseDeg) < 1.5,
      s"mean noise degree $mean vs ${pp.expectedNoiseDeg}")
  }

  test("stats match a DuckDB oracle over the edge list") {
    import s.implicits._
    val st = Bipartite.stats(planted.left, planted.nRight)
    val edges = Bipartite.edgesDf(planted.left)
    val measured = s.createDataset(Seq((st.mU, st.edges, st.avgDeg)))
      .toDF("m_u", "edges", "avg_deg")
    Oracle.assertEquivalent(
      measured,
      """SELECT
        |  (SELECT count(DISTINCT u) FROM e) AS m_u,
        |  (SELECT count(*) FROM e) AS edges,
        |  (SELECT count(*) FROM e) / (SELECT count(DISTINCT u) FROM e) AS avg_deg
        |""".stripMargin,
      "e" -> edges,
    )
  }

  test("p99 degree matches an exact SQL quantile oracle") {
    import s.implicits._
    val st = Bipartite.stats(planted.left, planted.nRight)
    val degs = planted.left.map(lv => (lv.u, lv.nbrs.length)).toDF("u", "deg")
    val measured = s.createDataset(Seq(Tuple1(st.p99Deg))).toDF("p99")
    // Same definition as stats(): the ceil(0.99*m)-th smallest degree.
    Oracle.assertEquivalent(
      measured,
      """SELECT deg AS p99 FROM (
        |  SELECT CAST(deg AS INT) AS deg,
        |         row_number() OVER (ORDER BY CAST(deg AS INT)) AS rn,
        |         count(*) OVER () AS m
        |  FROM d
        |) WHERE rn = CAST(ceil(0.99 * m) AS BIGINT)""".stripMargin,
      "d" -> degs,
    )
  }

  test("every surrogate spec generates a graph with its declared shape") {
    Bipartite.Surrogates.keys.toSeq.sorted.foreach { name =>
      val spec = Bipartite.Surrogates(name)
      val g = Bipartite.surrogate(spark, name)
      assert(g.nRight == spec.nV, s"$name nV")
      assert(g.left.count() == spec.mU, s"$name mU")
      assert(g.rightClusters.length == spec.blocks, s"$name blocks")
    }
  }

  test("surrogate average degree tracks the paper's (within 2x)") {
    Seq("20News", "Reuters", "Flickr").foreach { name =>
      val spec = Bipartite.Surrogates(name)
      val g = Bipartite.surrogate(spark, name)
      val st = Bipartite.stats(g.left, g.nRight)
      assert(st.avgDeg > spec.paperAvgDeg / 2.0 && st.avgDeg < spec.paperAvgDeg * 2.0,
        s"$name avgDeg=${st.avgDeg} vs paper ${spec.paperAvgDeg}")
    }
  }

  test("surrogate degree distribution has a heavy tail (P99 >> avg)") {
    val g = Bipartite.surrogate(spark, "Reuters")
    val st = Bipartite.stats(g.left, g.nRight)
    assert(st.p99Deg > 2 * st.avgDeg, s"p99=${st.p99Deg} avg=${st.avgDeg}")
  }

  test("surrogate generation is deterministic") {
    val a = Bipartite.surrogate(spark, "20News").left.collect().sortBy(_.u).map(_.nbrs.toSeq)
    val b = Bipartite.surrogate(spark, "20News").left.collect().sortBy(_.u).map(_.nbrs.toSeq)
    assert(a.toSeq == b.toSeq)
  }

  test("unknown surrogate name fails fast") {
    intercept[RuntimeException](Bipartite.surrogate(spark, "nope"))
  }

  test("distinctDraws returns sorted distinct values in range") {
    val rng = new scala.util.Random(3)
    val d = Bipartite.distinctDraws(rng, 20, 50)
    assert(d.length == 20)
    assert(d.toSeq == d.toSeq.sorted.distinct)
    assert(d.forall(x => x >= 0 && x < 50))
    intercept[IllegalArgumentException](Bipartite.distinctDraws(rng, 10, 5))
  }

  test("SplitMix64 is deterministic and roughly uniform") {
    val g1 = new SplitMix64(99)
    val g2 = new SplitMix64(99)
    val a = Seq.fill(100)(g1.nextDouble())
    val b = Seq.fill(100)(g2.nextDouble())
    assert(a == b)
    assert(a.forall(x => x >= 0.0 && x < 1.0))
    val mean = a.sum / a.length
    assert(mean > 0.35 && mean < 0.65)
  }

  test("edgesDf explodes exactly the adjacency lists") {
    import s.implicits._
    val small = s.createDataset(Seq(
      repro.core.LeftVertex(0L, Array(1, 2)),
      repro.core.LeftVertex(1L, Array(2)),
    ))
    val e = Bipartite.edgesDf(small).as[(Long, Int)].collect().toSet
    assert(e == Set((0L, 1), (0L, 2), (1L, 2)))
  }
}
