package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.{BroadcastCount, JobCount, SparkSpec}
import repro.core.{GreedyCover, LeftVertex, Metrics, SparseVec}

class BassoSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private def toDs(vs: Seq[SparseVec]): Dataset[LeftVertex] = {
    import s.implicits._
    s.createDataset(vs.zipWithIndex.map { case (v, i) => LeftVertex(i.toLong, v.idx) })
  }

  test("noiseless block matrix is factorized exactly") {
    // Two disjoint blocks: rows 0-9 use cols {0..4}, rows 10-19 use {5..9}.
    val rows = (0 until 10).map(_ => SparseVec(0, 1, 2, 3, 4)) ++
      (0 until 10).map(_ => SparseVec(5, 6, 7, 8, 9))
    val model = Basso.fitOriented(toDs(rows), 10, Basso.Config(kMax = 2, tau = 0.8), flipped = false)
    val (basis, _, q) = model.evaluate(2)
    assert(basis.length == 2)
    assert(basis.map(_.toSet).toSet == Set(Set(0, 1, 2, 3, 4), Set(5, 6, 7, 8, 9)))
    assert(q.relativeHammingGain == 1.0)
    assert(q.recall == 1.0)
  }

  test("candidate association respects tau") {
    // Col 0 always appears; col 1 appears with col 0 half the time.
    val rows = (0 until 10).map(i => if (i < 5) SparseVec(0, 1) else SparseVec(0))
    val strict = Basso.fitOriented(toDs(rows), 2, Basso.Config(1, tau = 0.9), flipped = false)
    // conf(0→1) = 0.5 < 0.9, so the chosen basis from col 0 is {0} alone.
    assert(strict.basis.head.toSet == Set(0))
    val loose = Basso.fitOriented(toDs(rows), 2, Basso.Config(1, tau = 0.4), flipped = false)
    assert(loose.basis.head.toSet == Set(0, 1))
  }

  test("greedy picks the highest-gain basis first") {
    // Big block (20 rows × 6 cols) and small block (5 rows × 3 cols).
    val rows = (0 until 20).map(_ => SparseVec(0, 1, 2, 3, 4, 5)) ++
      (0 until 5).map(_ => SparseVec(10, 11, 12))
    val model = Basso.fitOriented(toDs(rows), 13, Basso.Config(2, 0.8), flipped = false)
    assert(model.basis(0).toSet == Set(0, 1, 2, 3, 4, 5))
    assert(model.basis(1).toSet == Set(10, 11, 12))
  }

  test("evaluate on a prefix uses only the first k basis vectors") {
    val rows = (0 until 20).map(_ => SparseVec(0, 1, 2, 3, 4, 5)) ++
      (0 until 5).map(_ => SparseVec(10, 11, 12))
    val model = Basso.fitOriented(toDs(rows), 13, Basso.Config(2, 0.8), flipped = false)
    val (b1, _, q1) = model.evaluate(1)
    val (b2, _, q2) = model.evaluate(2)
    assert(b1.length == 1 && b2.length == 2)
    assert(q2.relativeHammingGain >= q1.relativeHammingGain)
    assert(q2.recall > q1.recall)
  }

  test("evaluate(0) has no basis and zero quality over every edge") {
    val rows = (0 until 20).map(_ => SparseVec(0, 1, 2, 3, 4, 5)) ++
      (0 until 5).map(_ => SparseVec(10, 11, 12))
    val model = Basso.fitOriented(toDs(rows), 13, Basso.Config(2, 0.8), flipped = false)
    val (basis, assign, q) = model.evaluate(0)
    assert(basis.isEmpty)
    assert(assign.collect().forall(_.clusters.isEmpty))
    assert(q == Metrics.BmfQuality(0L, 0L, rows.map(_.nnz.toLong).sum))
  }

  test("evaluate(0) on an empty dataset has zero quality and no edges") {
    import s.implicits._
    val empty = s.createDataset(s.sparkContext.parallelize(Seq.empty[LeftVertex], 2))
    val model = Basso.fitOriented(empty, 3, Basso.Config(2, 0.8), flipped = false)
    val (basis, _, q) = model.evaluate(0)
    assert(basis.isEmpty && model.basis.isEmpty)
    assert(q == Metrics.BmfQuality(0L, 0L, 0L))
  }

  test("usageInOrder only uses positively scoring basis vectors") {
    val basis = Array(SparseVec(0, 1), SparseVec(50, 51, 52))
    def usageInOrder(g: SparseVec): Seq[Int] = {
      val cover = new GreedyCover(basis)
      Basso.use(cover, g, basis.indices.toArray)
      cover.result.picks.toSeq
    }
    assert(usageInOrder(SparseVec(0, 1)) == Seq(0))
    assert(usageInOrder(SparseVec(50, 51)) == Seq(1))
    assert(usageInOrder(SparseVec(90)).isEmpty)
  }

  test("fit flips when the right side is larger") {
    import s.implicits._
    // 3 left vertices, 20 right vertices → flip expected.
    val rows = Seq(SparseVec(0, 1, 2), SparseVec(0, 1, 2), SparseVec(10, 11))
    val model = Basso.fit(toDs(rows), 20, Basso.Config(2, 0.6))
    assert(model.flipped)
    assert(model.nCols == 3)
  }

  test("fit does not flip when the left side is larger") {
    val rows = (0 until 20).map(_ => SparseVec(0, 1))
    val model = Basso.fit(toDs(rows), 3, Basso.Config(1, 0.6))
    assert(!model.flipped)
    assert(model.nCols == 3)
  }

  test("memory gate throws BassoOutOfMemory") {
    val rows = Seq(SparseVec(0, 1))
    intercept[BassoOutOfMemory] {
      Basso.fitOriented(toDs(rows), 100000, Basso.Config(2, 0.6, maxAssocCells = 1000L),
        flipped = false)
    }
    // Through fit, flipped: 3 rows give 9 cells over a budget of 8.
    intercept[BassoOutOfMemory] {
      Basso.fit(toDs(Seq.fill(3)(SparseVec(0, 1))), 20, Basso.Config(2, 0.6, maxAssocCells = 8L))
    }
  }

  test("transpose inverts the bipartite adjacency") {
    import s.implicits._
    val ds = toDs(Seq(SparseVec(0, 2), SparseVec(2)))
    val t = Basso.transpose(ds, 3).collect().sortBy(_.u)
    assert(t.map(lv => (lv.u, lv.nbrs.toSeq)).toSeq ==
      Seq((0L, Seq(0)), (2L, Seq(0, 1))))
  }

  test("transpose twice is identity on non-isolated vertices") {
    import s.implicits._
    val rows = Seq(SparseVec(0, 1, 5), SparseVec(1, 2), SparseVec(5))
    val ds = toDs(rows)
    val back = Basso.transpose(Basso.transpose(ds, 6), 3).collect().sortBy(_.u)
    assert(back.map(lv => (lv.u, lv.nbrs.toSeq)).toSeq ==
      rows.zipWithIndex.map { case (v, i) => (i.toLong, v.idx.toSeq) })
  }

  /** Three planted 20-row × 8-column blocks over 24 columns, with noise. */
  private def noisyRows: Seq[SparseVec] = {
    val rng = new scala.util.Random(9)
    (0 until 60).map { i =>
      val b = i / 20
      val mine = (b * 8) until ((b + 1) * 8)
      SparseVec.fromArray(
        (mine.filter(_ => rng.nextDouble() < 0.9) ++
          (0 until 24).filter(_ => rng.nextDouble() < 0.01)).toArray)
    }
  }

  test("noisy planted blocks still give strong gain") {
    val model = Basso.fitOriented(toDs(noisyRows), 24, Basso.Config(3, 0.6), flipped = false)
    val (_, _, q) = model.evaluate(3)
    assert(q.relativeHammingGain > 0.6, s"gain=${q.relativeHammingGain}")
    assert(q.recall > 0.7, s"recall=${q.recall}")
  }

  /** For every prefix, `evaluate`'s quality equals the DuckDB-checked
    * reference `Metrics.bmfQuality` over the same rows and usage.
    */
  private def qualityMatchesReference(model: Basso.Model): Unit =
    (0 to model.basis.length + 1).foreach { k =>
      val (basis, assign, q) = model.evaluate(k)
      assert(q == Metrics.bmfQuality(model.rows, assign, basis), s"k=$k")
    }

  test("evaluate's quality equals Metrics.bmfQuality for every prefix") {
    val model = Basso.fitOriented(toDs(noisyRows), 24, Basso.Config(3, 0.6), flipped = false)
    assert(model.basis.length == 3)
    qualityMatchesReference(model)
  }

  test("evaluate's quality equals Metrics.bmfQuality on a flipped fit") {
    // The noisy blocks transposed: 24 rows over 60 columns, so fit flips back.
    val cols = noisyRows.zipWithIndex
      .flatMap { case (v, i) => v.idx.map(j => (j, i)) }
      .groupBy(_._1).toSeq.sortBy(_._1).map { case (_, ps) => SparseVec(ps.map(_._2)) }
    val model = Basso.fit(toDs(cols), 60, Basso.Config(3, 0.6))
    assert(model.flipped && model.basis.nonEmpty)
    qualityMatchesReference(model)
  }

  test("evaluate's quality equals Metrics.bmfQuality on an empty dataset") {
    import s.implicits._
    val empty = s.createDataset(s.sparkContext.parallelize(Seq.empty[LeftVertex], 2))
    qualityMatchesReference(Basso.fitOriented(empty, 3, Basso.Config(2, 0.8), flipped = false))
  }

  test("fit and fitOriented leave an uncached, unflipped input uncached") {
    import org.apache.spark.storage.StorageLevel
    val rows = toDs(noisyRows)
    val viaFit = Basso.fit(rows, 24, Basso.Config(3, 0.6))
    assert(!viaFit.flipped && (viaFit.rows eq rows))
    assert(rows.storageLevel == StorageLevel.NONE)
    Basso.fitOriented(rows, 24, Basso.Config(3, 0.6), flipped = false)
    assert(rows.storageLevel == StorageLevel.NONE)
  }

  test("fit caches the transposed rows it builds") {
    import org.apache.spark.storage.StorageLevel
    val model = Basso.fit(toDs(Seq(SparseVec(0, 1, 2), SparseVec(0, 1, 2), SparseVec(10, 11))), 20,
      Basso.Config(2, 0.6))
    assert(model.flipped && model.rows.storageLevel != StorageLevel.NONE)
    model.rows.unpersist()
  }

  test("evaluate computes its quality in one Spark job") {
    val model = Basso.fitOriented(toDs(noisyRows), 24, Basso.Config(3, 0.6), flipped = false)
    assert(JobCount(s)(model.evaluate(3))._2 == 1)
  }

  test("a fit broadcasts its candidates once, whatever its rounds; evaluate broadcasts its prefix once") {
    val (model, made) = BroadcastCount(s)(
      Basso.fitOriented(toDs(noisyRows), 24, Basso.Config(3, 0.6), flipped = false))
    assert(model.basis.length == 3)
    assert(made == 1)
    assert(BroadcastCount(s)(model.evaluate(3))._2 == 1)
  }
}
