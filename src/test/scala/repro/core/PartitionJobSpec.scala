package repro.core

import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD

import repro.{JobCount, SparkSpec}

/** `PartitionJob.run` against `glom().collect()`: one result per
  * partition, in partition order, from one Spark job.
  */
class PartitionJobSpec extends SparkSpec {
  import PartitionJobSpec.summary

  /** 0 … n−1 in `parts` partitions; partitions listed in `empty` are emptied. */
  private def ints(n: Int, parts: Int, empty: Set[Int] = Set.empty): RDD[Int] =
    spark.sparkContext.parallelize(0 until n, parts)
      .mapPartitionsWithIndex((i, it) => if (empty(i)) Iterator.empty else it)

  private def assertMatchesGlom(rdd: RDD[Int]): Unit = {
    val got = PartitionJob.run(rdd)(summary)
    val want = rdd.glom().collect().map(p => summary(p.iterator))
    assert(got.length == rdd.partitions.length)
    assert(got.toSeq == want.toSeq)
  }

  for (parts <- Seq(1, 3, 8)) {
    test(s"results equal glom().collect() per partition, in order, on $parts partitions") {
      assertMatchesGlom(ints(100, parts))
    }
  }

  test("empty partitions give their own results in place") {
    assertMatchesGlom(ints(100, 8, empty = Set(0, 3, 4, 7)))
    assertMatchesGlom(ints(5, 8))
  }

  test("an empty RDD gives one result per (empty) partition, or none without partitions") {
    assertMatchesGlom(ints(0, 3))
    assert(PartitionJob.run(spark.sparkContext.emptyRDD[Int])(summary).isEmpty)
  }

  test("a failing task surfaces as a SparkException caused by the original exception") {
    val e = intercept[SparkException] {
      PartitionJob.run(ints(10, 2)) { it =>
        if (it.contains(7)) throw new IllegalStateException("row 7 is bad")
        0
      }
    }
    assert(e.getCause != null, s"no cause in $e")
    assert(e.getCause.getClass == classOf[IllegalStateException])
    assert(e.getCause.getMessage == "row 7 is bad")
  }

  test("each call runs one Spark job") {
    val rdd = ints(100, 4)
    val (res, jobs) = JobCount(spark)(PartitionJob.run(rdd)(summary))
    assert(res.length == 4)
    assert(jobs == 1)
  }
}

object PartitionJobSpec {

  /** An order-sensitive summary of a partition's rows. A member of an
    * object, so the task closure does not capture the suite.
    */
  def summary(it: Iterator[Int]): (Int, Long, String) = {
    val xs = it.toArray
    (xs.length, xs.foldLeft(0L)((h, x) => h * 31 + x), xs.mkString(","))
  }
}
