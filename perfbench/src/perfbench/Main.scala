package perfbench

import scala.collection.immutable.ListMap

import org.apache.spark.sql.SparkSession

/** Entry point of one benchmark run:
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      --cores <n> --work-dir <dir> [--corrupt 1] [--git-sha <sha>] [--src-sha256 <hex>]
  * }}}
  *
  * Prints a report line with the run's metadata and details, then, as
  * the last line, `{"correct", "attempted", "failed", "metrics"}`.
  * `perfbench/run.py` builds the classes and starts this.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(key: String): String = opts.getOrElse(key, sys.error(s"missing --$key"))
    val workload = Workloads.byName(opt("workload")).getOrElse(
      sys.error(s"unknown workload ${opt("workload")}; know ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val corrupt = opts.get("corrupt").contains("1")
    val cores = opt("cores").toInt
    val workDir = opt("work-dir")

    implicit val spark: SparkSession = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      // The session settings of the repository's test and bench suites.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
    Runner.log(s"spark up, ${workload.name} seed $seed")
    try {
      val r =
        if (trace) Runner.traced(workload, seed, seconds, corrupt)
        else Runner.timed(workload, seed, seconds, corrupt)
      val units = (if (trace) Runner.PerLayer else Runner.EndToEnd).map(m => m.name -> m.unit).toMap
      val meta = ListMap(
        "workload" -> workload.name,
        "seed" -> seed,
        "trace" -> trace,
        "seconds" -> seconds,
        "git_sha" -> opts.getOrElse("git-sha", "unknown"),
        "src_sha256" -> opts.getOrElse("src-sha256", "unknown"),
        "nproc" -> cores,
        "spark_version" -> spark.version,
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "failures" -> r.failures,
      ) ++ r.details
      println(Json(ListMap("perfbench_report" -> meta)))
      println(Json(ListMap(
        "correct" -> (r.failed == 0 && r.failures.isEmpty),
        "attempted" -> r.attempted,
        "failed" -> r.failed,
        "metrics" -> r.metrics.map { case (name, v) => name -> ListMap("value" -> v, "unit" -> units(name)) },
      )))
    } finally {
      spark.stop()
      Runner.log("stopped")
    }
  }
}
