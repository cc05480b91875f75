package repro.core

import org.apache.spark.SparkException
import org.apache.spark.sql.{Dataset, SparkSession}

import repro.SparkSpec

class SecondPassSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private def toDs(vs: Seq[SparseVec]): Dataset[LeftVertex] = {
    import s.implicits._
    s.createDataset(vs.zipWithIndex.map { case (v, i) => LeftVertex(i.toLong, v.idx) })
  }

  private def cover(g: SparseVec, clusters: Array[SparseVec]): GreedyCover.Result =
    new GreedyCover(clusters).run(g)

  // ---- left vertex validation -----------------------------------------

  test("LeftVertex.vec accepts sorted, distinct, non-negative neighbors") {
    assert(LeftVertex(1L, Array(0, 3, 7)).vec == SparseVec(0, 3, 7))
    assert(LeftVertex(2L, Array.emptyIntArray).vec.isEmpty)
  }

  test("LeftVertex.vec rejects unsorted neighbors") {
    val e = intercept[IllegalArgumentException](LeftVertex(7L, Array(1, 5, 3)).vec)
    assert(e.getMessage.contains("left vertex 7") && e.getMessage.contains("not sorted"))
  }

  test("LeftVertex.vec rejects duplicate neighbors") {
    val e = intercept[IllegalArgumentException](LeftVertex(7L, Array(1, 3, 3, 5)).vec)
    assert(e.getMessage.contains("left vertex 7") && e.getMessage.contains("duplicate"))
  }

  test("LeftVertex.vec rejects negative neighbors") {
    val e = intercept[IllegalArgumentException](LeftVertex(7L, Array(-2, 3)).vec)
    assert(e.getMessage.contains("left vertex 7") && e.getMessage.contains("negative"))
  }

  // ---- score function ------------------------------------------------

  test("score with empty Y is |X∩A| - |A\\X|") {
    val a = SparseVec(1, 2, 3, 4)
    val x = SparseVec(2, 3, 9)
    assert(SecondPass.score(a, x, SparseVec.empty) == 2 - 2)
  }

  test("score gives no credit for already-covered elements") {
    val a = SparseVec(1, 2)
    val x = SparseVec(1, 2)
    val y = SparseVec(1)
    assert(SecondPass.score(a, x, y) == 1)
  }

  test("score does not re-penalize already-overcovered elements") {
    val a = SparseVec(5, 6)
    val x = SparseVec(5)
    val y = SparseVec(6) // 6 was overcovered before
    assert(SecondPass.score(a, x, y) == 1)
  }

  test("score of a fully covered set is zero") {
    val a = SparseVec(1, 2)
    val x = SparseVec(1, 2, 3)
    assert(SecondPass.score(a, x, a) == 0)
  }

  test("score matches its set-algebra definition on random inputs") {
    val rng = new scala.util.Random(41)
    for (_ <- 1 to 100) {
      val a = SparseVec.fromArray(Array.fill(rng.nextInt(15))(rng.nextInt(40)))
      val x = SparseVec.fromArray(Array.fill(rng.nextInt(15))(rng.nextInt(40)))
      val y = SparseVec.fromArray(Array.fill(rng.nextInt(15))(rng.nextInt(40)))
      val expected = ((x.toSet diff y.toSet) intersect a.toSet).size -
        (a.toSet diff (x.toSet union y.toSet)).size
      assert(SecondPass.score(a, x, y) == expected)
    }
  }

  // ---- greedy cover (driver-side) ------------------------------------

  test("coverVertex picks the cluster matching the neighborhood") {
    val clusters = Array(SparseVec(0, 1, 2), SparseVec(10, 11, 12))
    assert(cover(SparseVec(0, 1, 2), clusters).picks.toSeq == Seq(0))
    assert(cover(SparseVec(10, 11), clusters).picks.toSeq == Seq(1))
  }

  test("coverVertex uses multiple clusters for a union neighborhood") {
    val clusters = Array(SparseVec(0, 1, 2), SparseVec(10, 11, 12))
    val picks = cover(SparseVec(0, 1, 2, 10, 11, 12), clusters).picks
    assert(picks.toSet == Set(0, 1))
  }

  test("coverVertex never picks a cluster with nonpositive score") {
    val clusters = Array(SparseVec(50, 51, 52, 53))
    assert(cover(SparseVec(0, 1), clusters).picks.isEmpty)
  }

  test("coverVertex picks each cluster at most once") {
    val clusters = Array(SparseVec(0, 1), SparseVec(0, 1, 2))
    val picks = cover(SparseVec(0, 1, 2), clusters).picks
    assert(picks.length == picks.distinct.length)
  }

  test("coverVertexWithScores reports the greedy marginal gains") {
    val clusters = Array(SparseVec(0, 1, 2), SparseVec(2, 3))
    val r = cover(SparseVec(0, 1, 2, 3), clusters)
    val picks = r.picks.zip(r.gains)
    assert(picks(0) == ((0, 3L))) // covers {0,1,2}
    assert(picks(1) == ((1, 1L))) // covers {3}, 2 already covered
  }

  // ---- distributed assignment ---------------------------------------

  test("assignBicluster maximizes relative overlap (Eq. 2)") {
    val clusters = Array(SparseVec(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), SparseVec(0, 1))
    // Vertex {0,1}: overlap 2/10 vs 2/2 → cluster 1 wins on relative overlap.
    val ds = toDs(Seq(SparseVec(0, 1)))
    val out = SecondPass.assignBicluster(ds, clusters).collect()
    assert(out.head.clusters.toSeq == Seq(1))
  }

  test("assignBicluster assigns every vertex exactly one cluster") {
    val inst = TestGraphs.planted(k = 3, ell = 20, n = 150, r = 10, p = 0.9, q = 0.01)
    val ds = toDs(inst.vectors)
    val out = SecondPass.assignBicluster(ds, inst.rightClusters.toArray).collect()
    assert(out.length == inst.vectors.length)
    assert(out.forall(_.clusters.length == 1))
  }

  test("assignBicluster with true right clusters recovers the planted left clusters") {
    val inst = TestGraphs.planted(k = 4, ell = 30, n = 300, r = 12,
      p = 0.9, q = 0.003, seed = 21L)
    import s.implicits._
    val ds = toDs(inst.vectors)
    val truth = s.createDataset(inst.leftTruth.zipWithIndex.map { case (c, i) => (i.toLong, c) })
    val assign = SecondPass.assignBicluster(ds, inst.rightClusters.toArray)
    val q = Metrics.qualityQLeft(truth, assign)
    assert(q > 0.95, s"expected clean left recovery, got Q=$q")
  }

  test("coverBmf returns assignments for every vertex plus aggregate scores") {
    val clusters = Array(SparseVec(0, 1, 2), SparseVec(10, 11, 12))
    val ds = toDs(Seq(SparseVec(0, 1, 2), SparseVec(10, 11), SparseVec(0, 1, 10, 11)))
    val scores = SecondPass.coverScores(ds, Seq(clusters)).head
    val got = SecondPass.coverAssignments(ds, clusters).collect().sortBy(_.u)
    assert(got.length == 3)
    assert(got(0).clusters.toSeq == Seq(0))
    assert(got(1).clusters.toSeq == Seq(1))
    assert(got(2).clusters.toSet == Set(0, 1))
    // Scores: cluster 0 earns 3 (v0) + 1 (v2: 2 covered − 1 over); cluster 1 similar.
    assert(scores(0) > 0 && scores(1) > 0)
  }

  test("coverBmf scores equal the sum of per-vertex greedy gains") {
    val inst = TestGraphs.planted(k = 3, ell = 15, n = 120, r = 8, p = 0.9, q = 0.01)
    val ds = toDs(inst.vectors)
    val clusters = inst.rightClusters.toArray
    val scores = SecondPass.coverScores(ds, Seq(clusters)).head
    val expected = new Array[Long](clusters.length)
    inst.vectors.foreach { v =>
      val r = cover(v, clusters)
      r.picks.zip(r.gains).foreach { case (i, sc) => expected(i) += sc }
    }
    assert(scores.toSeq == expected.toSeq)
  }

  test("cover jobs reject duplicate or unsorted neighbors, naming the vertex") {
    import s.implicits._
    val clusters = Array(SparseVec(3), SparseVec(3, 5))
    val jobs = Seq[Dataset[LeftVertex] => Any](
      SecondPass.coverQuality(_, Seq(clusters)),
      SecondPass.coverScores(_, Seq(clusters)),
      SecondPass.coverAssignments(_, clusters).collect(),
    )
    for (bad <- Seq(LeftVertex(7L, Array(3, 3)), LeftVertex(8L, Array(5, 3))); job <- jobs) {
      val ds = s.createDataset(Seq(LeftVertex(1L, Array(3, 5)), bad))
      val e = intercept[SparkException](job(ds))
      val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .collectFirst { case iae: IllegalArgumentException => iae }
      assert(cause.exists(_.getMessage.contains(s"left vertex ${bad.u}")),
        s"no IllegalArgumentException naming the vertex in $e")
    }
  }

  test("topKBmf keeps the k highest-scoring candidates") {
    // Candidate 2 is junk (matches nothing) and must be dropped.
    val candidates = Array(SparseVec(0, 1, 2), SparseVec(10, 11, 12), SparseVec(90, 91))
    val ds = toDs(Seq(SparseVec(0, 1, 2), SparseVec(10, 11, 12), SparseVec(0, 1)))
    val (kept, assign) = SecondPass.topKBmf(ds, candidates, 2)
    assert(kept.length == 2)
    assert(kept.toSet == Set(SparseVec(0, 1, 2), SparseVec(10, 11, 12)))
    assert(assign.collect().length == 3)
  }

  test("topKBmf with k >= candidates keeps everything useful") {
    val candidates = Array(SparseVec(0, 1), SparseVec(5, 6))
    val ds = toDs(Seq(SparseVec(0, 1), SparseVec(5, 6)))
    val (kept, _) = SecondPass.topKBmf(ds, candidates, 10)
    assert(kept.length == 2)
  }
}
