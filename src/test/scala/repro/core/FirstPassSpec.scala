package repro.core

import org.apache.spark.SparkException
import org.apache.spark.sql.{Dataset, SparkSession}

import repro.{BroadcastCount, JobCount, SparkSpec}
import repro.data.Bipartite

/** `SofaDistributed.firstPass` against its definition: per-partition
  * `Sofa.cluster` over the partitions of `left.rdd`, then the driver
  * merge of the concatenated partition centers.
  */
class FirstPassSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private lazy val planted = Bipartite.planted(spark, Bipartite.PlantedParams(
    k = 5, ell = 60, n = 800, r = 15, p = 0.9, expectedNoiseDeg = 3.0, seed = 23L))
  private lazy val rows: Array[LeftVertex] = planted.left.collect().sortBy(_.u)

  private def cfg: Sofa.Config =
    Sofa.Config(k = 5, cMax = 30, nRight = planted.nRight, mgCapacity = 40)

  /** `rows` in `parts` partitions, in order; partitions listed in `empty` are emptied. */
  private def split(rows: Seq[LeftVertex], parts: Int, empty: Set[Int] = Set.empty): Dataset[LeftVertex] = {
    import s.implicits._
    s.createDataset(s.sparkContext.parallelize(rows, parts)
      .mapPartitionsWithIndex((i, it) => if (empty(i)) Iterator.empty else it))
  }

  private def reference(left: Dataset[LeftVertex], c: Sofa.Config): IndexedSeq[Sofa.Center] = {
    val parts = left.rdd.glom().collect()
    val partCenters = parts.flatMap(p => Sofa.cluster(p.iterator.map(lv => Sofa.freshItem(lv.vec, c)), c))
    Sofa.cluster(partCenters.iterator, c)
  }

  private def summary(cs: IndexedSeq[Sofa.Center]) =
    cs.map(c => (c.vec, c.weight, c.mg.entries.toSeq.sorted, c.mg.totalWeight))

  private def assertMatches(left: Dataset[LeftVertex]): Unit = {
    val got = summary(SofaDistributed.firstPass(left, cfg))
    assert(got == summary(reference(left, cfg)))
  }

  for (parts <- Seq(1, 3, 8)) {
    test(s"firstPass equals per-partition cluster plus driver merge on $parts partitions") {
      assertMatches(split(rows.toSeq, parts))
    }
  }

  test("firstPass equals the reference with empty partitions") {
    assertMatches(split(rows.toSeq, 8, empty = Set(0, 3, 4, 7)))
    assertMatches(split(rows.take(5).toSeq, 8))
  }

  test("firstPass on an empty dataset returns no centers") {
    assert(SofaDistributed.firstPass(split(Seq.empty, 3), cfg).isEmpty)
    assert(reference(split(Seq.empty, 3), cfg).isEmpty)
  }

  test("firstPass rejects a vertex with a column at or above nRight") {
    val bad = LeftVertex(912L, Array(0, 4, planted.nRight))
    val e = intercept[SparkException](SofaDistributed.firstPass(split(rows.take(10).toSeq :+ bad, 2), cfg))
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case iae: IllegalArgumentException => iae }
    assert(cause.exists(c => c.getMessage.contains("left vertex 912") && c.getMessage.contains("nRight")),
      s"no IllegalArgumentException naming the vertex in $e")
  }

  test("firstPass accepts columns up to nRight - 1") {
    val edge = LeftVertex(913L, Array(0, 4, planted.nRight - 1))
    val centers = SofaDistributed.firstPass(split(rows.take(10).toSeq :+ edge, 2), cfg)
    assert(centers.map(_.weight).sum == 11)
  }

  // ---- job counts: each call's Spark round trips ---------------------

  test("firstPass runs one Spark job") {
    val left = split(rows.toSeq, 4)
    assert(JobCount(s)(SofaDistributed.firstPass(left, cfg))._2 == 1)
  }

  test("bmfFromCenters runs two Spark jobs for all thresholds") {
    val left = split(rows.toSeq, 4)
    val centers = SofaDistributed.firstPass(left, cfg)
    val (res, jobs) = JobCount(s)(SofaDistributed.bmfFromCenters(left, centers, cfg.k, Seq(0.3, 0.5, 0.7)))
    assert(res.length == 3)
    assert(jobs == 2)
  }

  test("bmfFromCenters makes two broadcasts; a read assignment makes one more, once") {
    val left = split(rows.toSeq, 4)
    val centers = SofaDistributed.firstPass(left, cfg)
    val (res, made) = BroadcastCount(s)(SofaDistributed.bmfFromCenters(left, centers, cfg.k, Seq(0.3, 0.5, 0.7)))
    assert(res.length == 3)
    assert(made == 2)
    val (first, read) = BroadcastCount(s)(res(1).assignments)
    assert(read == 1)
    val (second, again) = BroadcastCount(s)(res(1).assignments)
    assert(again == 0 && (second eq first))
  }

  test("bmfAutoPipeline runs three Spark jobs") {
    val left = split(rows.toSeq, 4)
    assert(JobCount(s)(SofaDistributed.bmfAutoPipeline(left, cfg))._2 == 3)
  }
}
