package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.data.Bipartite
import repro.exp.{RealWorldGrid, Tables}

/** spark-submit entrypoint: run the full real-world evaluation grid and
  * print Tables 1–5 (paper vs measured).
  *
  * Usage: RunTables [dataset,dataset,...] [k,k,...]
  */
object RunTables {
  def main(args: Array[String]): Unit = {
    val datasets = args.lift(0).map(_.split(",").toSeq)
      .getOrElse(Tables.Datasets)
    val ks = args.lift(1).map(_.split(",").map(_.toInt).toSeq)
      .getOrElse(Tables.OurKs)
    implicit val spark: SparkSession = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-tables")
      .getOrCreate()
    try {
      // Table 1: dataset properties.
      println("== Table 1: dataset properties (paper / measured at 1/50) ==")
      println(f"${"dataset"}%-8s ${"|U|"}%18s ${"|V|"}%18s ${"|E|"}%20s ${"avgDeg"}%13s ${"P99"}%11s")
      datasets.foreach { name =>
        val spec = Bipartite.Surrogates(name)
        val planted = Bipartite.surrogate(spark, name)
        val st = Bipartite.stats(planted.left, planted.nRight)
        println(f"$name%-8s ${spec.paperU}%8d/${st.mU}%8d ${spec.paperV}%8d/${st.nV}%8d " +
          f"${spec.paperE}%10d/${st.edges}%8d ${spec.paperAvgDeg}%5d/${st.avgDeg}%6.1f " +
          f"${spec.paperP99}%5d/${st.p99Deg}%5d")
      }

      val cells = RealWorldGrid.run(RealWorldGrid.Config(datasets = datasets, ks = ks))
      cells.foreach(c => c.error.foreach(e => println(s"failed: ${c.dataset} k=${c.k} ${c.algo}: $e")))
      println(Tables.render("Table 2: relative Hamming gain", cells, Tables.PaperGain, _.gain))
      println(Tables.render("Table 3: recall", cells, Tables.PaperRecall, _.recall))
      println(Tables.render("Table 4: run-time (paper: CPU min, measured: s)",
        cells, Tables.PaperMinutes, _.seconds, v => f"$v%.1f"))
      println(Tables.render("Table 5: memory (paper: GB, measured: state MB)",
        cells, Tables.PaperMemoryGB, _.stateMB, v => f"$v%.2f"))
    } finally spark.stop()
  }
}
