package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.{Oracle, SparkSpec}
import repro.data.Bipartite

class MetricsSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private def toDs(vs: Seq[SparseVec]): Dataset[LeftVertex] = {
    import s.implicits._
    s.createDataset(vs.zipWithIndex.map { case (v, i) => LeftVertex(i.toLong, v.idx) })
  }

  // ---- Jaccard / Q ---------------------------------------------------

  test("jaccard of identical sets is 1, of disjoint sets 0") {
    assert(Metrics.jaccard(Set(1, 2), Set(1, 2)) == 1.0)
    assert(Metrics.jaccard(Set(1), Set(2)) == 0.0)
    assert(Metrics.jaccard(Set.empty[Int], Set.empty[Int]) == 1.0)
  }

  test("qualityQ is 1 for an exact cluster match") {
    val truth = Seq(Set(1L, 2L), Set(3L, 4L))
    assert(Metrics.qualityQ(truth, truth.reverse) == 1.0)
  }

  test("qualityQ degrades with partial overlap") {
    val truth = Seq(Set(1L, 2L, 3L, 4L))
    val found = Seq(Set(1L, 2L))
    assert(math.abs(Metrics.qualityQ(truth, found) - 0.5) < 1e-9)
  }

  test("qualityQ with no found clusters is 0") {
    assert(Metrics.qualityQ(Seq(Set(1L)), Seq.empty) == 0.0)
  }

  test("qualityQRight wraps sparse vectors") {
    val a = Seq(SparseVec(1, 2), SparseVec(3))
    assert(Metrics.qualityQRight(a, a) == 1.0)
  }

  test("qualityQLeft computes Q from distributed assignments") {
    import s.implicits._
    val truth = s.createDataset(Seq((0L, 0), (1L, 0), (2L, 1), (3L, 1)))
    val found = s.createDataset(Seq(
      LeftAssignment(0L, Array(5)), LeftAssignment(1L, Array(5)),
      LeftAssignment(2L, Array(9)), LeftAssignment(3L, Array(9))))
    assert(Metrics.qualityQLeft(truth, found) == 1.0)
  }

  test("qualityQLeft handles imperfect assignments") {
    import s.implicits._
    val truth = s.createDataset(Seq((0L, 0), (1L, 0), (2L, 0), (3L, 0)))
    val found = s.createDataset(Seq(
      LeftAssignment(0L, Array(1)), LeftAssignment(1L, Array(1)),
      LeftAssignment(2L, Array(1)), LeftAssignment(3L, Array(2))))
    // Best Jaccard for the single truth cluster: |{0,1,2}| / |{0,1,2,3}| = 0.75.
    assert(math.abs(Metrics.qualityQLeft(truth, found) - 0.75) < 1e-9)
  }

  // ---- BMF quality ----------------------------------------------------

  test("perfect reconstruction has gain 1 and recall 1") {
    val clusters = Array(SparseVec(0, 1), SparseVec(5, 6))
    val ds = toDs(Seq(SparseVec(0, 1), SparseVec(5, 6)))
    val assign = SecondPass.coverAssignments(ds, clusters)
    val q = Metrics.bmfQuality(ds, assign, clusters)
    assert(q.relativeHammingGain == 1.0)
    assert(q.recall == 1.0)
  }

  test("empty cover has gain 0 and recall 0") {
    import s.implicits._
    val ds = toDs(Seq(SparseVec(0, 1, 2)))
    val assign = s.createDataset(Seq(LeftAssignment(0L, Array.empty[Int])))
    val q = Metrics.bmfQuality(ds, assign, Array(SparseVec(9)))
    assert(q.relativeHammingGain == 0.0 && q.recall == 0.0)
    assert(q.ones == 3)
  }

  test("overcovering reduces gain but not recall") {
    import s.implicits._
    val ds = toDs(Seq(SparseVec(0, 1)))
    val clusters = Array(SparseVec(0, 1, 2, 3)) // covers both edges + 2 spurious
    val assign = s.createDataset(Seq(LeftAssignment(0L, Array(0))))
    val q = Metrics.bmfQuality(ds, assign, clusters)
    assert(q.recall == 1.0)
    assert(math.abs(q.relativeHammingGain - 0.0) < 1e-9) // (0 fn + 2 fp)/2 ones
  }

  test("BmfQuality formulas match their definitions") {
    val q = Metrics.BmfQuality(truePositives = 30, coverSize = 40, ones = 60)
    // gain = 1 - ((60-30) + (40-30))/60 = 1 - 40/60
    assert(math.abs(q.relativeHammingGain - (1.0 - 40.0 / 60.0)) < 1e-9)
    assert(math.abs(q.recall - 0.5) < 1e-9)
  }

  test("bmfQuality counts agree with a DuckDB SQL oracle") {
    import s.implicits._
    val inst = TestGraphs.planted(k = 2, ell = 10, n = 60, r = 8, p = 0.8, q = 0.02)
    val ds = toDs(inst.vectors).cache()
    val clusters = inst.rightClusters.toArray
    val assign = SecondPass.coverAssignments(ds, clusters)
    val q = Metrics.bmfQuality(ds, assign, clusters)
    // The one-job quality that production runs must agree too.
    assert(SecondPass.coverQuality(ds, Seq(clusters)).head == q)

    // Rebuild B and B̃ as edge tables and let DuckDB compute tp/|B̃|/|B|.
    val bDf = Bipartite.edgesDf(ds)
    val bTildeDf = assign
      .flatMap { a =>
        var cover = SparseVec.empty
        a.clusters.foreach(i => cover = cover.union(clusters(i)))
        cover.idx.map(v => (a.u, v))
      }
      .toDF("u", "v")
    val measured = s.createDataset(Seq(
      (q.truePositives, q.coverSize, q.ones)
    )).toDF("tp", "cover_size", "ones")
    Oracle.assertEquivalent(
      measured,
      """SELECT
        |  (SELECT count(*) FROM b JOIN bt USING (u, v)) AS tp,
        |  (SELECT count(*) FROM bt) AS cover_size,
        |  (SELECT count(*) FROM b) AS ones""".stripMargin,
      "b" -> bDf, "bt" -> bTildeDf,
    )
    ds.unpersist()
  }

  test("relative Hamming gain agrees with a DuckDB XOR-count oracle") {
    import s.implicits._
    val inst = TestGraphs.planted(k = 2, ell = 12, n = 50, r = 6, p = 0.9, q = 0.05, seed = 8L)
    val ds = toDs(inst.vectors).cache()
    val clusters = inst.rightClusters.toArray
    val assign = SecondPass.coverAssignments(ds, clusters)
    val q = Metrics.bmfQuality(ds, assign, clusters)
    // The one-job quality that production runs must agree too.
    assert(SecondPass.coverQuality(ds, Seq(clusters)).head == q)
    val bDf = Bipartite.edgesDf(ds)
    val bTildeDf = assign
      .flatMap { a =>
        var cover = SparseVec.empty
        a.clusters.foreach(i => cover = cover.union(clusters(i)))
        cover.idx.map(v => (a.u, v))
      }
      .toDF("u", "v")
    val measured = s.createDataset(Seq(Tuple1(q.relativeHammingGain)))
      .toDF("gain")
    Oracle.assertEquivalent(
      measured,
      """SELECT 1.0 - (
        |  (SELECT count(*) FROM (SELECT u, v FROM b EXCEPT SELECT u, v FROM bt)) +
        |  (SELECT count(*) FROM (SELECT u, v FROM bt EXCEPT SELECT u, v FROM b))
        |) / (SELECT count(*) FROM b) AS gain""".stripMargin,
      "b" -> bDf, "bt" -> bTildeDf,
    )
    ds.unpersist()
  }
}
