package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.SparkSpec

/** Edge cases across the sofa pipeline: degenerate vertices, empty
  * clusters, duplicate data, extreme parameters.
  */
class EdgeCaseSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private def toDs(vs: Seq[SparseVec]): Dataset[LeftVertex] = {
    import s.implicits._
    s.createDataset(vs.zipWithIndex.map { case (v, i) => LeftVertex(i.toLong, v.idx) })
  }

  test("sofa handles isolated vertices (empty neighborhoods)") {
    val cfg = Sofa.Config(2, 8, 50, 16)
    val stream = Seq(SparseVec.empty, SparseVec(1, 2), SparseVec.empty, SparseVec(1, 2, 3))
    val centers = Sofa.cluster(stream.iterator.map(Sofa.freshItem(_, cfg)), cfg)
    assert(centers.map(_.weight).sum == 4)
  }

  test("sofa handles a stream of identical vertices") {
    val cfg = Sofa.Config(2, 8, 50, 16)
    val stream = Seq.fill(50)(SparseVec(1, 2, 3))
    val centers = Sofa.cluster(stream.iterator.map(Sofa.freshItem(_, cfg)), cfg)
    // All identical: distance 0 to the first center, nothing else opens.
    assert(centers.length == 1)
    assert(centers.head.weight == 50)
    val rights = Sofa.postprocessKMedians(centers, cfg, 0.5)
    assert(rights.exists(_.toSet == Set(1, 2, 3)))
  }

  test("postprocessKMedians on empty centers yields empty clusters per theta") {
    val cfg = Sofa.Config(2, 8, 50, 16)
    assert(Sofa.postprocessKMedians(IndexedSeq.empty, cfg, 0.4).isEmpty)
    assert(Sofa.postprocessKMedians(IndexedSeq.empty, cfg, 0.6).isEmpty)
  }

  test("threshold with zero weight keeps every live counter") {
    val mg = MisraGries(8)
    mg.add(3, 5)
    assert(Sofa.threshold(mg, 0.5, 0L) == SparseVec(3))
  }

  test("coverVertex with empty cluster array returns no picks") {
    assert(new GreedyCover(Array.empty).run(SparseVec(1, 2)).picks.isEmpty)
  }

  test("coverVertex on an isolated vertex returns no picks") {
    assert(new GreedyCover(Array(SparseVec(1))).run(SparseVec.empty).picks.isEmpty)
  }

  test("assignBicluster ignores empty clusters") {
    val ds = toDs(Seq(SparseVec(5)))
    val out = SecondPass.assignBicluster(ds,
      Array(SparseVec.empty, SparseVec(5), SparseVec.empty)).collect()
    assert(out.head.clusters.toSeq == Seq(1))
  }

  test("bmfQuality with duplicate vertices double-counts correctly") {
    import s.implicits._
    // Two identical vertices, one cluster covering both exactly.
    val ds = s.createDataset(Seq(
      LeftVertex(0L, Array(1, 2)), LeftVertex(1L, Array(1, 2))))
    val clusters = Array(SparseVec(1, 2))
    val assign = s.createDataset(Seq(
      LeftAssignment(0L, Array(0)), LeftAssignment(1L, Array(0))))
    val q = Metrics.bmfQuality(ds, assign, clusters)
    assert(q.ones == 4 && q.truePositives == 4 && q.coverSize == 4)
    assert(q.relativeHammingGain == 1.0)
  }

  test("sofa config rejects nonsensical sketch capacity") {
    intercept[IllegalArgumentException](Sofa.Config(2, 8, 50, 0))
  }

  test("greedy bicluster on an empty stream returns nothing") {
    val res = GreedyBicluster.run(Iterator.empty, 1.0, 0.5, 8)
    assert(res.centers.isEmpty && res.clusters.isEmpty)
  }

  test("distributed firstPass on a single-vertex dataset") {
    val cfg = Sofa.Config(1, 4, 20, 8)
    val centers = SofaDistributed.firstPass(toDs(Seq(SparseVec(1, 2))), cfg)
    assert(centers.length == 1 && centers.head.weight == 1)
  }

  test("qualityQ tolerates more found clusters than truth") {
    val truth = Seq(Set(1L, 2L))
    val found = Seq(Set(9L), Set(1L, 2L), Set(3L))
    assert(Metrics.qualityQ(truth, found) == 1.0)
  }

  test("KMedians with all-identical points keeps one effective center") {
    val pts = IndexedSeq.fill(10)(KMedians.WPoint(SparseVec(1, 2), 1L))
    val r = KMedians.cluster(pts, 3)
    assert(r.cost == 0.0)
    assert(r.assignment.toSet.size >= 1)
  }

  test("MisraGries with capacity 1 still tracks the majority item") {
    val mg = MisraGries(1)
    (1 to 100).foreach(_ => mg.add(7))
    (1 to 30).foreach(i => mg.add(i % 5 + 10))
    assert(mg.estimate(7) > 0, "majority item must survive capacity-1 compaction")
  }
}
