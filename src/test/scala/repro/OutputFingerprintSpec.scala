package repro

import java.io.{DataOutputStream, OutputStream}
import java.nio.charset.StandardCharsets
import java.security.{DigestOutputStream, MessageDigest}

import scala.io.Source

import org.apache.spark.sql.SparkSession

import repro.core.{Sofa, SofaDistributed}
import repro.data.Bipartite
import repro.exp.{RealWorldGrid, Tables}
import repro.stream.SofaStreamState

/** Bit-identity of sofa's first-pass outputs and of the small
  * datasets' grid cells, against the committed golden file
  * `output-fingerprints.txt`.
  *
  * A `firstPass/` or `stream/` entry is the SHA-256 of a center set in
  * output order: every center's vector, weight, sketch entries sorted
  * by column, and sketch total. A `grid/` entry is one `RealWorldGrid`
  * cell of 20News or Reuters: the raw bits of its gain, recall and
  * state MB, in hex. The inputs do not depend on the host: the
  * surrogates come in `Bipartite.Slices` partitions, and so does every
  * stream batch here. A change that is meant to move an output replaces
  * the golden file with the one a failure prints, and lists the entries
  * that moved.
  */
class OutputFingerprintSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private val Golden = "/output-fingerprints.txt"
  private val K = 40

  private def fingerprint(centers: IndexedSeq[Sofa.Center]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
    out.writeInt(centers.length)
    centers.foreach { c =>
      out.writeInt(c.vec.nnz)
      c.vec.idx.foreach(out.writeInt)
      out.writeLong(c.weight)
      val (items, counts) = c.mg.entryArrays
      out.writeInt(items.length)
      items.indices.sortBy(items(_)).foreach { i => out.writeInt(items(i)); out.writeLong(counts(i)) }
      out.writeLong(c.mg.totalWeight)
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** The first pass at k = 40 on the whole surrogate `name`. */
  private def firstPass(name: String): String = {
    val planted = Bipartite.surrogate(spark, name)
    val left = planted.left.cache()
    try {
      val cfg = Sofa.Config.forDataset(Bipartite.stats(left, planted.nRight), K)
      fingerprint(SofaDistributed.firstPass(left, cfg))
    } finally left.unpersist()
  }

  /** The state after the first `rows` Wiki rows in `batches` micro-batches. */
  private def stream(rows: Int, batches: Int): String = {
    import spark.implicits._
    val base = Bipartite.Surrogates("Wiki")
    val planted = Bipartite.surrogate(spark, base.copy(paperU = rows.toLong * base.scale))
    val all = planted.left.collect()
    val cfg = Sofa.Config.forDataset(Bipartite.stats(planted.left, planted.nRight), K)
    val state = new SofaStreamState(cfg)
    all.grouped((all.length + batches - 1) / batches).foreach { chunk =>
      state.update(spark.createDataset(spark.sparkContext.parallelize(chunk.toSeq, Bipartite.Slices)))
    }
    assert(state.verticesSeen == rows)
    fingerprint(state.centers)
  }

  /** Every grid cell of 20News and Reuters at every k, keyed by cell. */
  private def gridCells: Seq[(String, String)] = {
    def bits(x: Double) = f"${java.lang.Double.doubleToRawLongBits(x)}%016x"
    RealWorldGrid.run(RealWorldGrid.Config(Seq("20News", "Reuters"), Tables.OurKs)).map { c =>
      s"grid/${c.dataset}/k${c.k}/${c.algo}" -> Seq(c.gain, c.recall, c.stateMB).map(bits).mkString(":")
    }
  }

  private def header: Seq[String] = Seq(
    "# SHA-256 of sofa's center sets (OutputFingerprintSpec): vector, weight,",
    "# sorted sketch entries and sketch total of every center, in output order;",
    "# and the raw bits of gain:recall:stateMB of every 20News and Reuters grid cell.",
    s"# java.version ${System.getProperty("java.version")} (${System.getProperty("java.vm.name")})",
  )

  private def golden: Seq[(String, String)] =
    Option(getClass.getResourceAsStream(Golden)).fold(Seq.empty[(String, String)]) { in =>
      val src = Source.fromInputStream(in, StandardCharsets.UTF_8.name())
      try src.getLines().filterNot(l => l.startsWith("#") || l.trim.isEmpty).map { l =>
        val Array(key, hash) = l.trim.split("\\s+")
        key -> hash
      }.toSeq finally src.close()
    }

  /** Compare `now` against the golden entries whose key starts with one
    * of `prefixes`; a failure prints the whole new file, with the other
    * tests' golden entries kept as they are.
    */
  private def check(now: Seq[(String, String)], prefixes: String*): Unit = {
    def mine(key: String) = prefixes.exists(key.startsWith)
    val (kept, others) = golden.partition(e => mine(e._1))
    val was = kept.toMap
    val moved = now.collect {
      case (key, hash) if !was.get(key).contains(hash) =>
        s"$key: golden ${was.getOrElse(key, "(none)")}, now $hash"
    } ++ was.keySet.diff(now.map(_._1).toSet).toSeq.sorted.map(k => s"$k: in the golden file, not computed")
    if (moved.nonEmpty) {
      val file = (header ++ (now ++ others).map { case (k, h) => s"$k $h" }).mkString("\n")
      fail(s"${moved.size} fingerprint(s) differ from $Golden:\n  ${moved.mkString("\n  ")}\n" +
        s"The new file:\n$file\n")
    }
  }

  test("first-pass and stream-state fingerprints match the golden file") {
    check(
      Seq("20News", "Reuters", "Movie", "Wiki").map(d => s"firstPass/$d/k$K" -> firstPass(d)) :+
        (s"stream/Wiki-1000rows-16batches/k$K" -> stream(rows = 1000, batches = 16)),
      "firstPass/", "stream/")
  }

  test("grid cells of 20News and Reuters match the golden file") {
    check(gridCells, "grid/")
  }
}
