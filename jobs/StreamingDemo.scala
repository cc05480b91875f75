package repro.jobs

import java.nio.file.{Files, Path}
import java.nio.file.attribute.FileTime
import java.util.Comparator

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{LeftVertex, Metrics, SecondPass, Sofa}
import repro.data.Bipartite
import repro.stream.{SofaStream, SofaStreamState}

/** spark-submit entrypoint: drive sofa through Structured Streaming.
  *
  * Generates a planted graph, writes the left vertices as JSON batches,
  * replays them as a file stream into the mergeable sofa state, and
  * prints the recovered right-cluster quality against the planted
  * ground truth.
  *
  * Usage: StreamingDemo [k=10] [ell=100] [n=2000]
  */
object StreamingDemo {
  def main(args: Array[String]): Unit = {
    val k = args.lift(0).map(_.toInt).getOrElse(10)
    val ell = args.lift(1).map(_.toInt).getOrElse(100)
    val n = args.lift(2).map(_.toInt).getOrElse(2000)
    implicit val spark: SparkSession = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("sofa-streaming-demo")
      .getOrCreate()
    import spark.implicits._
    val dir = Files.createTempDirectory("sofa-stream")
    try {
      val pp = Bipartite.PlantedParams(k = k, ell = ell, n = n, r = 30, p = 0.8,
        expectedNoiseDeg = 10.0)
      val planted = Bipartite.planted(spark, pp)
      planted.left.repartition(8).write.mode("overwrite").json(dir.toString)
      // The file source forms its batches in modification-time order,
      // and the parallel write leaves the part files' times in the order
      // their tasks finished. Times one second apart in name (partition)
      // order make every run read the same files in the same batches.
      val parts = {
        val listing = Files.list(dir)
        try listing.iterator.asScala.filter(_.getFileName.toString.startsWith("part-")).toVector.sorted
        finally listing.close()
      }
      val t0 = System.currentTimeMillis() - 1000L * parts.length
      parts.zipWithIndex.foreach { case (p, i) => Files.setLastModifiedTime(p, FileTime.fromMillis(t0 + 1000L * i)) }

      val cfg = Sofa.Config.forDataset(Bipartite.stats(planted.left, n), k)
      val state = new SofaStreamState(cfg)
      val stream: Dataset[LeftVertex] = spark.readStream
        .schema(planted.left.schema)
        .option("maxFilesPerTrigger", 2)
        .json(dir.toString)
        .as[LeftVertex]
      val query = SofaStream.start(stream, state)
      query.processAllAvailable()
      query.stop()

      println(s"stream consumed: ${state.verticesSeen} vertices, " +
        s"${state.centers.length} centers retained")
      val rights = state.rightClusters(theta = 0.5)
      val q = Metrics.qualityQRight(planted.rightClusters.toSeq, rights.toSeq)
      println(f"right-cluster quality Q = $q%.3f (1.0 = exact planted recovery)")
      val assign = SecondPass.assignBicluster(planted.left, rights)
      val ql = Metrics.qualityQLeft(planted.leftTruth, assign)
      println(f"left-cluster quality  Q = $ql%.3f")
    } finally {
      spark.stop()
      val tree = Files.walk(dir)
      try tree.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p)) finally tree.close()
    }
  }
}
