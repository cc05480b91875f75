package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.{BroadcastCount, JobCount, SparkSpec}
import repro.core.{GreedyCover, LeftVertex, Metrics, SparseVec}
import repro.data.Bipartite

class BassoSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private def toDs(vs: Seq[SparseVec]): Dataset[LeftVertex] = {
    import s.implicits._
    s.createDataset(vs.zipWithIndex.map { case (v, i) => LeftVertex(i.toLong, v.idx) })
  }

  /** [[Basso.fit]] on `rows` over `nRight` right vertices, with the
    * statistics a caller would have counted.
    */
  private def fit(rows: Dataset[LeftVertex], nRight: Int, cfg: Basso.Config): Seq[Basso.Model] =
    Basso.fit(rows, Bipartite.stats(rows, nRight), cfg)

  test("noiseless block matrix is factorized exactly") {
    // Two disjoint blocks: rows 0-9 use cols {0..4}, rows 10-19 use {5..9}.
    val rows = (0 until 10).map(_ => SparseVec(0, 1, 2, 3, 4)) ++
      (0 until 10).map(_ => SparseVec(5, 6, 7, 8, 9))
    val model = Basso.fitOriented(toDs(rows), 10, Basso.Config(kMax = 2, taus = Seq(0.8)), flipped = false).head
    val (basis, _, q) = model.evaluate(2)
    assert(basis.length == 2)
    assert(basis.map(_.toSet).toSet == Set(Set(0, 1, 2, 3, 4), Set(5, 6, 7, 8, 9)))
    assert(q.relativeHammingGain == 1.0)
    assert(q.recall == 1.0)
  }

  test("candidate association respects tau") {
    // Col 0 always appears; col 1 appears with col 0 half the time.
    val rows = (0 until 10).map(i => if (i < 5) SparseVec(0, 1) else SparseVec(0))
    val strict = Basso.fitOriented(toDs(rows), 2, Basso.Config(1, taus = Seq(0.9)), flipped = false).head
    // conf(0→1) = 0.5 < 0.9, so the chosen basis from col 0 is {0} alone.
    assert(strict.basis.head.toSet == Set(0))
    val loose = Basso.fitOriented(toDs(rows), 2, Basso.Config(1, taus = Seq(0.4)), flipped = false).head
    assert(loose.basis.head.toSet == Set(0, 1))
  }

  test("greedy picks the highest-gain basis first") {
    // Big block (20 rows × 6 cols) and small block (5 rows × 3 cols).
    val rows = (0 until 20).map(_ => SparseVec(0, 1, 2, 3, 4, 5)) ++
      (0 until 5).map(_ => SparseVec(10, 11, 12))
    val model = Basso.fitOriented(toDs(rows), 13, Basso.Config(2, Seq(0.8)), flipped = false).head
    assert(model.basis(0).toSet == Set(0, 1, 2, 3, 4, 5))
    assert(model.basis(1).toSet == Set(10, 11, 12))
  }

  test("evaluate on a prefix uses only the first k basis vectors") {
    val rows = (0 until 20).map(_ => SparseVec(0, 1, 2, 3, 4, 5)) ++
      (0 until 5).map(_ => SparseVec(10, 11, 12))
    val model = Basso.fitOriented(toDs(rows), 13, Basso.Config(2, Seq(0.8)), flipped = false).head
    val (b1, _, q1) = model.evaluate(1)
    val (b2, _, q2) = model.evaluate(2)
    assert(b1.length == 1 && b2.length == 2)
    assert(q2.relativeHammingGain >= q1.relativeHammingGain)
    assert(q2.recall > q1.recall)
  }

  test("evaluate(0) has no basis and zero quality over every edge") {
    val rows = (0 until 20).map(_ => SparseVec(0, 1, 2, 3, 4, 5)) ++
      (0 until 5).map(_ => SparseVec(10, 11, 12))
    val model = Basso.fitOriented(toDs(rows), 13, Basso.Config(2, Seq(0.8)), flipped = false).head
    val (basis, assign, q) = model.evaluate(0)
    assert(basis.isEmpty)
    assert(assign.collect().forall(_.clusters.isEmpty))
    assert(q == Metrics.BmfQuality(0L, 0L, rows.map(_.nnz.toLong).sum))
  }

  test("evaluate(0) on an empty dataset has zero quality and no edges") {
    import s.implicits._
    val empty = s.createDataset(s.sparkContext.parallelize(Seq.empty[LeftVertex], 2))
    val model = Basso.fitOriented(empty, 3, Basso.Config(2, Seq(0.8)), flipped = false).head
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
    // 3 left vertices, 20 right vertices → flip expected.
    val rows = Seq(SparseVec(0, 1, 2), SparseVec(0, 1, 2), SparseVec(10, 11))
    val model = fit(toDs(rows), 20, Basso.Config(2, Seq(0.6))).head
    assert(model.flipped)
    assert(model.nCols == 3)
  }

  test("fit does not flip when the left side is larger") {
    val rows = (0 until 20).map(_ => SparseVec(0, 1))
    val model = fit(toDs(rows), 3, Basso.Config(1, Seq(0.6))).head
    assert(!model.flipped)
    assert(model.nCols == 3)
  }

  test("memory gate throws BassoOutOfMemory") {
    val rows = Seq(SparseVec(0, 1))
    intercept[BassoOutOfMemory] {
      Basso.fitOriented(toDs(rows), 100000, Basso.Config(2, Seq(0.6), maxAssocCells = 1000L),
        flipped = false)
    }
    // Through fit, flipped: 3 rows give 9 cells over a budget of 8.
    intercept[BassoOutOfMemory] {
      fit(toDs(Seq.fill(3)(SparseVec(0, 1))), 20, Basso.Config(2, Seq(0.6), maxAssocCells = 8L))
    }
  }

  test("transpose inverts the bipartite adjacency") {
    val ds = toDs(Seq(SparseVec(0, 2), SparseVec(2)))
    val t = Basso.transpose(ds).collect().sortBy(_.u)
    assert(t.map(lv => (lv.u, lv.nbrs.toSeq)).toSeq ==
      Seq((0L, Seq(0)), (2L, Seq(0, 1))))
  }

  test("transpose twice is identity on non-isolated vertices") {
    val rows = Seq(SparseVec(0, 1, 5), SparseVec(1, 2), SparseVec(5))
    val ds = toDs(rows)
    val back = Basso.transpose(Basso.transpose(ds)).collect().sortBy(_.u)
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

  /** `rows` transposed: one row per column holding the row ids that have it. */
  private def columnsOf(rows: Seq[SparseVec]): Seq[SparseVec] =
    rows.zipWithIndex
      .flatMap { case (v, i) => v.idx.map(j => (j, i)) }
      .groupBy(_._1).toSeq.sortBy(_._1).map { case (_, ps) => SparseVec(ps.map(_._2)) }

  test("noisy planted blocks still give strong gain") {
    val model = Basso.fitOriented(toDs(noisyRows), 24, Basso.Config(3, Seq(0.6)), flipped = false).head
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
    val model = Basso.fitOriented(toDs(noisyRows), 24, Basso.Config(3, Seq(0.6)), flipped = false).head
    assert(model.basis.length == 3)
    qualityMatchesReference(model)
  }

  test("evaluate's quality equals Metrics.bmfQuality on a flipped fit") {
    // The noisy blocks transposed: 24 rows over 60 columns, so fit flips back.
    val model = fit(toDs(columnsOf(noisyRows)), 60, Basso.Config(3, Seq(0.6))).head
    assert(model.flipped && model.basis.nonEmpty)
    qualityMatchesReference(model)
  }

  test("evaluate's quality equals Metrics.bmfQuality on an empty dataset") {
    import s.implicits._
    val empty = s.createDataset(s.sparkContext.parallelize(Seq.empty[LeftVertex], 2))
    qualityMatchesReference(Basso.fitOriented(empty, 3, Basso.Config(2, Seq(0.8)), flipped = false).head)
  }

  test("fit and fitOriented leave an uncached, unflipped input uncached") {
    import org.apache.spark.storage.StorageLevel
    val rows = toDs(noisyRows)
    val viaFit = fit(rows, 24, Basso.Config(3, Seq(0.6))).head
    assert(!viaFit.flipped && (viaFit.rows eq rows))
    assert(rows.storageLevel == StorageLevel.NONE)
    Basso.fitOriented(rows, 24, Basso.Config(3, Seq(0.6)), flipped = false)
    assert(rows.storageLevel == StorageLevel.NONE)
  }

  test("fit caches the transposed rows it builds") {
    import org.apache.spark.storage.StorageLevel
    val model = fit(toDs(Seq(SparseVec(0, 1, 2), SparseVec(0, 1, 2), SparseVec(10, 11))), 20,
      Basso.Config(2, Seq(0.6))).head
    assert(model.flipped && model.rows.storageLevel != StorageLevel.NONE)
    model.rows.unpersist()
  }

  test("evaluate computes its quality in one Spark job") {
    val model = Basso.fitOriented(toDs(noisyRows), 24, Basso.Config(3, Seq(0.6)), flipped = false).head
    assert(JobCount(s)(model.evaluate(3))._2 == 1)
  }

  test("a fit broadcasts its candidates once, whatever its rounds; evaluate broadcasts its prefix once") {
    // Once per τ: each τ has its own candidates.
    Seq(Seq(0.6), Seq(0.4, 0.6), Seq(0.4, 0.5, 0.6)).foreach { taus =>
      val (models, made) = BroadcastCount(s)(
        Basso.fitOriented(toDs(noisyRows), 24, Basso.Config(3, taus), flipped = false))
      assert(models.forall(_.basis.length == 3))
      assert(made == taus.length, s"taus=$taus")
      assert(BroadcastCount(s)(models.head.evaluate(3))._2 == 1)
    }
  }

  /** Three 20-row × 8-column blocks; each row also holds the next
    * block's first three columns with probability one half, so τ = 0.4
    * and τ = 0.6 threshold those columns differently.
    */
  private def mixedRows: Seq[SparseVec] = {
    val rng = new scala.util.Random(5)
    (0 until 60).map { i =>
      val b = i / 20
      val next = ((b + 1) % 3) * 8
      SparseVec.fromArray((((b * 8) until ((b + 1) * 8)).filter(_ => rng.nextDouble() < 0.9) ++
        (next until next + 3).filter(_ => rng.nextDouble() < 0.5)).toArray)
    }
  }

  /** Each model's flip, basis and `evaluate` quality for every prefix. */
  private def outputs(models: Seq[Basso.Model]): Seq[(Boolean, Seq[Seq[Int]], Seq[Metrics.BmfQuality])] =
    models.map(m => (m.flipped, m.basis.map(_.idx.toSeq).toSeq, (0 to m.basis.length + 1).map(m.evaluate(_)._3)))

  test("each τ of a many-τ fit equals its single-τ fit, on shared rows, flipped and unflipped") {
    Seq((mixedRows, 24), (columnsOf(mixedRows), 60)).foreach { case (rows, nRight) =>
      val ds = toDs(rows)
      val both = fit(ds, nRight, Basso.Config(4, Seq(0.4, 0.6)))
      assert(both.length == 2 && both.forall(_.rows eq both.head.rows))
      assert(both.head.flipped == (nRight == 60))
      val outs = outputs(both)
      // The two τ pick different bases here, so the models are not one fit twice.
      assert(outs(0)._2 != outs(1)._2)
      Seq(0.4, 0.6).zip(outs).foreach { case (tau, out) =>
        val one = fit(ds, nRight, Basso.Config(4, Seq(tau))).head
        assert(outputs(Seq(one)).head == out, s"nRight=$nRight tau=$tau")
        if (one.flipped) one.rows.unpersist()
      }
      if (both.head.flipped) both.head.rows.unpersist()
    }
  }

  test("a flipped fit's rows have Bipartite.Slices partitions under 64 shuffle partitions") {
    val before = s.conf.get("spark.sql.shuffle.partitions")
    s.conf.set("spark.sql.shuffle.partitions", "64")
    try {
      val model = fit(toDs(columnsOf(mixedRows)), 60, Basso.Config(2, Seq(0.4, 0.6))).head
      assert(model.flipped)
      assert(model.rows.rdd.getNumPartitions == Bipartite.Slices)
      model.rows.unpersist()
    } finally s.conf.set("spark.sql.shuffle.partitions", before)
  }

  test("a fit transposes and builds the association counts once, whatever its τ count") {
    // The side sizes come from the caller's statistics, so a fit does
    // not count its rows (under adaptive execution `count` is two jobs:
    // a map stage and the final aggregate). The transposition is two
    // jobs (its shuffle's map stage and the cache build) and the
    // association counts one; each τ then runs one gain job per round,
    // here 3.
    val flippedRows = toDs(columnsOf(noisyRows))
    val rows = toDs(noisyRows)
    assert(JobCount(s)(rows.count())._2 == 2)
    val (flippedSt, st) = (Bipartite.stats(flippedRows, 60), Bipartite.stats(rows, 24))
    Seq(Seq(0.6), Seq(0.4, 0.6), Seq(0.4, 0.5, 0.6)).foreach { taus =>
      val (flipped, flippedJobs) = JobCount(s)(Basso.fit(flippedRows, flippedSt, Basso.Config(3, taus)))
      assert(flipped.forall(m => m.flipped && m.basis.length == 3))
      assert(flippedJobs == 2 + 1 + 3 * taus.length, s"taus=$taus")
      flipped.head.rows.unpersist()
      val (unflipped, jobs) = JobCount(s)(Basso.fit(rows, st, Basso.Config(3, taus)))
      assert(unflipped.forall(m => !m.flipped && m.basis.length == 3))
      assert(jobs == 1 + 3 * taus.length, s"taus=$taus")
    }
  }

  test("bases and qualities do not depend on the input's partition count") {
    // The association counts are coalesced to 8 partitions and the
    // transposition regroups the rows, but every sum is an integer sum,
    // so neither the row order nor the partition count can change it.
    def fitIn(rows: Seq[SparseVec], nRight: Int, slices: Int) = {
      import s.implicits._
      val ds = s.createDataset(s.sparkContext.parallelize(
        rows.zipWithIndex.map { case (v, i) => LeftVertex(i.toLong, v.idx) }, slices))
      val models = fit(ds, nRight, Basso.Config(4, Seq(0.4, 0.6)))
      try outputs(models) finally if (models.head.flipped) models.head.rows.unpersist()
    }
    Seq((mixedRows, 24), (columnsOf(mixedRows), 60)).foreach { case (rows, nRight) =>
      val one = fitIn(rows, nRight, 1)
      assert(one.forall(_._2.nonEmpty))
      Seq(4, 16).foreach(p => assert(fitIn(rows, nRight, p) == one, s"nRight=$nRight slices=$p"))
    }
  }
}
