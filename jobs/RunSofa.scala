package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Sofa, SofaDistributed}
import repro.data.Bipartite
import repro.exp.RealWorldGrid

/** spark-submit entrypoint: run the sofa BMF pipeline on one surrogate
  * dataset and print gain/recall for each line-search threshold.
  *
  * Usage: RunSofa [dataset=20News] [k=20]
  */
object RunSofa {
  def main(args: Array[String]): Unit = {
    val dataset = args.lift(0).getOrElse("20News")
    val k = args.lift(1).map(_.toInt).getOrElse(20)
    implicit val spark: SparkSession = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"sofa-$dataset-k$k")
      .getOrCreate()
    try {
      val planted = Bipartite.surrogate(spark, dataset)
      val left = planted.left.cache()
      val st = Bipartite.stats(left, planted.nRight)
      println(s"dataset=$dataset |U|=${st.mU} |V|=${st.nV} |E|=${st.edges} " +
        f"density=${st.density}%.4f avgDeg=${st.avgDeg}%.1f p99=${st.p99Deg}")
      val cfg = Sofa.Config.forDataset(st, k)
      val centers = SofaDistributed.firstPass(left, cfg)
      println(s"first pass: ${centers.length} centers (cMax ${cfg.cMax}), " +
        s"total weight ${centers.map(_.weight).sum}")
      SofaDistributed.bmfFromCenters(left, centers, k, RealWorldGrid.Config().thetas).foreach { r =>
        val q = r.quality
        if (r.rightClusters.isEmpty) println(f"theta=${r.theta}%.1f: no candidate clusters")
        else println(f"theta=${r.theta}%.1f: clusters=${r.rightClusters.length} " +
          f"gain=${q.relativeHammingGain}%.4f recall=${q.recall}%.4f")
      }
    } finally spark.stop()
  }
}
