package repro.bench

import org.apache.spark.sql.SparkSession

import repro.SparkSpec
import repro.exp.{RealWorldGrid, Tables}

/** The real-world evaluation grid, executed once per bench run and
  * shared by the Table 2–5 suites (they only format different views of
  * the same rows — exactly like the paper, whose Tables 2–5 report one
  * experiment from four angles).
  *
  * Dataset and k lists can be trimmed via env vars for quick runs:
  * `BENCH_DATASETS=20News,Reuters BENCH_KS=10`.
  */
object BenchGrid {
  lazy val config: RealWorldGrid.Config = RealWorldGrid.Config(
    datasets = sys.env.get("BENCH_DATASETS")
      .map(_.split(",").toSeq).getOrElse(Tables.Datasets),
    ks = sys.env.get("BENCH_KS")
      .map(_.split(",").map(_.toInt).toSeq).getOrElse(Tables.OurKs),
  )

  lazy val cells: Seq[RealWorldGrid.Cell] = {
    implicit val spark: SparkSession = SparkSpec.shared
    val t0 = System.nanoTime()
    val out = RealWorldGrid.run(config)
    Console.err.println(f"[BenchGrid] grid completed in ${(System.nanoTime() - t0) / 1e9}%.1f s, " +
      s"${out.size} cells")
    out.foreach(c => c.error.foreach(e => Console.err.println(s"[BenchGrid] ${c.dataset} k=${c.k} ${c.algo} failed: $e")))
    out
  }
}
