package repro.stream

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream

import repro.{JobCount, SparkSpec}
import repro.core.{LeftVertex, Metrics, SecondPass, Sofa, SofaDistributed}
import repro.data.Bipartite

class SofaStreamSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private lazy val planted = Bipartite.planted(spark, Bipartite.PlantedParams(
    k = 4, ell = 50, n = 400, r = 12, p = 0.9, expectedNoiseDeg = 3.0, seed = 37L))
  private lazy val vertices: Array[LeftVertex] = planted.left.collect().sortBy(_.u)

  private def cfg: Sofa.Config =
    Sofa.Config(k = 4, cMax = 24, nRight = planted.nRight, mgCapacity = 400)

  /** A micro-batch in `Bipartite.Slices` partitions, so its first pass
    * splits the rows the same way on every master.
    */
  private def batchOf(rows: Seq[LeftVertex]): Dataset[LeftVertex] = {
    import s.implicits._
    s.createDataset(s.sparkContext.parallelize(rows, Bipartite.Slices))
  }

  test("state update folds batches and preserves stream weight") {
    val state = new SofaStreamState(cfg)
    vertices.grouped(60).foreach { batch =>
      state.update(batchOf(batch.toSeq))
    }
    assert(state.verticesSeen == vertices.length)
    assert(state.centers.map(_.weight).sum == vertices.length)
    assert(state.centers.length < cfg.cMax)
  }

  test("incremental batches reach quality close to one-shot clustering") {
    val state = new SofaStreamState(cfg)
    vertices.grouped(40).foreach(b => state.update(batchOf(b.toSeq)))
    val qStream = Metrics.qualityQRight(
      planted.rightClusters.toSeq, state.rightClusters(0.5).toSeq)

    val oneShot = SofaDistributed.firstPass(planted.left, cfg)
    val qBatch = Metrics.qualityQRight(
      planted.rightClusters.toSeq,
      Sofa.postprocessKMedians(oneShot, cfg, 0.5).toSeq)

    assert(qStream > 0.6, s"stream Q=$qStream (batch Q=$qBatch)")
    assert(qStream > qBatch - 0.3, s"stream Q=$qStream much worse than batch Q=$qBatch")
  }

  test("candidateClusters exposes the per-center BMF view") {
    val state = new SofaStreamState(cfg)
    state.update(batchOf(vertices.toSeq))
    val cand = state.candidateClusters(0.5)
    assert(cand.length <= state.centers.length)
    assert(cand.forall(_.nnz > 0))
  }

  test("empty batch is a no-op") {
    import s.implicits._
    val state = new SofaStreamState(cfg)
    state.update(s.createDataset(Seq.empty[LeftVertex]))
    assert(state.verticesSeen == 0 && state.centers.isEmpty)
  }

  test("a replayed batch id leaves the state unchanged") {
    val state = new SofaStreamState(cfg)
    val batches = vertices.grouped(50).map(b => batchOf(b.toSeq)).toVector
    state.update(batches(0), 0L)
    state.update(batches(1), 1L)
    def snapshot = (state.verticesSeen,
      state.centers.map(c => (c.vec, c.weight, c.mg.entries.toSeq.sorted, c.mg.totalWeight)))
    val before = snapshot
    state.update(batches(1), 1L)
    state.update(batches(2), 0L)
    assert(snapshot == before)
    state.update(batches(2), 2L)
    assert(state.verticesSeen == before._1 + 50)
  }

  test("update without a batch id folds every call") {
    val state = new SofaStreamState(cfg)
    val batch = batchOf(vertices.take(60).toSeq)
    state.update(batch)
    state.update(batch)
    assert(state.verticesSeen == 120)
  }

  test("update runs one Spark job per batch") {
    val state = new SofaStreamState(cfg)
    vertices.grouped(100).foreach { b =>
      val batch = batchOf(b.toSeq)
      assert(JobCount(s)(state.update(batch))._2 == 1)
    }
  }

  test("structured streaming via MemoryStream drives the state end-to-end") {
    import s.implicits._
    implicit val sql: org.apache.spark.sql.SQLContext = s.sqlContext
    val mem = MemoryStream[LeftVertex]
    val state = new SofaStreamState(cfg)
    val query = SofaStream.start(mem.toDS(), state, queryName = "sofa-test")
    try {
      vertices.grouped(50).foreach { batch =>
        mem.addData(batch.toSeq)
        query.processAllAvailable()
      }
    } finally query.stop()
    assert(state.verticesSeen == vertices.length)
    val rights = state.rightClusters(0.5)
    val q = Metrics.qualityQRight(planted.rightClusters.toSeq, rights.toSeq)
    assert(q > 0.6, s"streaming Q=$q")
    // Second pass over the (static) stream still works on the result.
    val assign = SecondPass.assignBicluster(planted.left, rights)
    assert(assign.collect().length == vertices.length)
  }
}
