package repro

import java.io.{DataOutputStream, OutputStream}
import java.nio.charset.StandardCharsets
import java.security.{DigestOutputStream, MessageDigest}

import scala.io.Source

import org.apache.spark.sql.SparkSession

import repro.core.{Sofa, SofaDistributed}
import repro.data.Bipartite
import repro.stream.SofaStreamState

/** Bit-identity of sofa's first-pass outputs, against the committed
  * golden file `output-fingerprints.txt`.
  *
  * Each entry is the SHA-256 of a center set in output order: every
  * center's vector, weight, sketch entries sorted by column, and sketch
  * total. The inputs do not depend on the host: the surrogates come in
  * `Bipartite.Slices` partitions, and so does every stream batch here.
  * A change that is meant to move an output replaces the golden file
  * with the one a failure prints, and lists the entries that moved.
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

  private def header: Seq[String] = Seq(
    "# SHA-256 of sofa's center sets (OutputFingerprintSpec): vector, weight,",
    "# sorted sketch entries and sketch total of every center, in output order.",
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

  test("first-pass and stream-state fingerprints match the golden file") {
    val now: Seq[(String, String)] =
      Seq("20News", "Reuters", "Movie", "Wiki").map(d => s"firstPass/$d/k$K" -> firstPass(d)) :+
        (s"stream/Wiki-1000rows-16batches/k$K" -> stream(rows = 1000, batches = 16))
    val was = golden.toMap
    val moved = now.collect {
      case (key, hash) if !was.get(key).contains(hash) =>
        s"$key: golden ${was.getOrElse(key, "(none)")}, now $hash"
    } ++ was.keySet.diff(now.map(_._1).toSet).toSeq.sorted.map(k => s"$k: in the golden file, not computed")
    if (moved.nonEmpty) {
      val file = (header ++ now.map { case (k, h) => s"$k $h" }).mkString("\n")
      fail(s"${moved.size} fingerprint(s) differ from $Golden:\n  ${moved.mkString("\n  ")}\n" +
        s"The new file:\n$file\n")
    }
  }
}
