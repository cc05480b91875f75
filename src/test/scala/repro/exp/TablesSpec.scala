package repro.exp

import repro.SparkSpec
import repro.exp.RealWorldGrid.Cell

class TablesSpec extends SparkSpec {

  test("paper constants cover the full (k, algo) grid for every table") {
    for (t <- Seq(Tables.PaperGain, Tables.PaperRecall, Tables.PaperMinutes, Tables.PaperMemoryGB)) {
      for (k <- Tables.PaperKs; a <- RealWorldGrid.Algos) {
        val row = t.get((k, a))
        assert(row.nonEmpty, s"missing paper row ($k, $a)")
        assert(row.get.length == Tables.Datasets.length)
      }
    }
  }

  test("the paper's basso column is NaN exactly on Wiki") {
    for (t <- Seq(Tables.PaperGain, Tables.PaperRecall, Tables.PaperMinutes, Tables.PaperMemoryGB);
         k <- Tables.PaperKs) {
      val row = t((k, "basso"))
      assert(row.last.isNaN, s"basso Wiki must be the paper's em-dash")
      assert(row.init.forall(!_.isNaN))
    }
  }

  test("paperK maps our scaled ks onto the paper's") {
    assert(Tables.paperK(10) == 50)
    assert(Tables.paperK(20) == 100)
    assert(Tables.paperK(40) == 200)
  }

  test("render prints paper and measured rows for every cell") {
    val cells = for (k <- Tables.OurKs; a <- RealWorldGrid.Algos; d <- Tables.Datasets)
      yield Cell(d, k, a, 0.5, 0.6, 1.0, 2.0, error = None)
    val out = Tables.render("t", cells, Tables.PaperGain, _.gain)
    assert(out.linesIterator.count(_.contains("measured")) == Tables.OurKs.size * RealWorldGrid.Algos.size)
    assert(out.linesIterator.count(_.contains("paper")) == Tables.OurKs.size * RealWorldGrid.Algos.size)
    assert(out.contains("0.5000"))
  }

  test("render marks failed and missing cells with a dash") {
    val cells = Seq(Cell("20News", 10, "basso", 1.0, 1.0, 1.0, 1.0, error = Some("failed")))
    val out = Tables.render("t", cells, Tables.PaperGain, _.gain)
    val measuredBasso = out.linesIterator
      .find(l => l.contains("basso") && l.contains("measured") && l.startsWith("10")).get
    assert(measuredBasso.contains("--"))
  }

  test("render applies the custom number format") {
    val cells = Seq(Cell("20News", 10, "sofa", 0.123456, 0, 12.345, 0, error = None))
    val out = Tables.render("t", cells, Tables.PaperMinutes, _.seconds, v => f"$v%.1f")
    assert(out.contains("12.3"))
  }
}
