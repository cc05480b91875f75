package repro.baselines

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll

import repro.core.{GreedyCover, SparseVec}

/** Differential test of basso's row kernel (the usage rule on a
  * [[GreedyCover]] of all candidates, then its positive gains) against
  * the union-and-rescan loop of [[NaiveAsso]].
  */
object AssoUsageProps extends Properties("AssoUsage") {
  import Prop.propBoolean

  private val genSet: Gen[SparseVec] =
    Gen.listOf(Gen.choose(0, 30)).map(l => SparseVec.fromArray(l.toArray))

  /** Candidates over `[0, 30]`, some empty, some repeated. */
  private val genCandidates: Gen[Array[SparseVec]] = for {
    base <- Gen.listOf(Gen.frequency(8 -> genSet, 1 -> Gen.const(SparseVec.empty)))
    repeats <- Gen.listOf(Gen.choose(0, 1000))
  } yield {
    val b = base.toArray
    if (b.isEmpty) b else b ++ repeats.map(r => b(r % b.length))
  }

  /** Distinct candidate indices in any order, possibly none. */
  private def genChosen(n: Int): Gen[Array[Int]] =
    if (n == 0) Gen.const(Array.emptyIntArray)
    else Gen.listOf(Gen.choose(0, n - 1)).map(_.distinct.toArray)

  /** A row built from some candidates plus noise, so usages take
    * several candidates and leave some overcover.
    */
  private def genRow(cands: Array[SparseVec]): Gen[SparseVec] = for {
    parts <- Gen.someOf(cands.toSeq)
    noise <- genSet
    drop <- genSet
  } yield parts.foldLeft(noise)(_.union(_)).diff(drop)

  private val genCase: Gen[(SparseVec, Array[SparseVec], Array[Int])] = for {
    cands <- genCandidates
    g <- genRow(cands)
    chosen <- genChosen(cands.length)
  } yield (g, cands, chosen)

  /** Shifts every column by `d`, off the `[0, 30]` range of the rows. */
  private def far(v: SparseVec, d: Int): SparseVec = SparseVec.fromArray(v.idx.map(_ + d))

  /** The usage picks, every gain (read one by one and visited), TP and
    * `|Y|` equal the reference's.
    */
  private def agrees(g: SparseVec, cands: Array[SparseVec], chosen: Array[Int], cover: GreedyCover): Prop = {
    val (refPicks, y) = NaiveAsso.usage(g, cands, chosen)
    val refGains = NaiveAsso.gains(g, cands, y).toSeq
    Basso.use(cover, g, chosen)
    val r = cover.result
    val visited = new Array[Long](cands.length)
    cover.foreachGain((c, s) => visited(c) += s)
    (r.picks.toSeq == refPicks.toSeq) :| s"picks ${r.picks.toSeq} vs ${refPicks.toSeq}" &&
      (visited.toSeq == refGains) :| s"visited gains ${visited.toSeq} vs $refGains" &&
      (cands.indices.map(cover.gain(_).toLong) == refGains) :| "gain(i)" &&
      (r.truePositives == g.intersectSize(y)) :| "true positives" &&
      (r.coverSize == y.nnz) :| "|Y|"
  }

  private def agrees(g: SparseVec, cands: Array[SparseVec], chosen: Array[Int]): Prop =
    agrees(g, cands, chosen, new GreedyCover(cands))

  property("usage picks, gains, TP and |Y| equal the reference") = forAll(genCase) { case (g, c, ch) =>
    agrees(g, c, ch)
  }

  property("empty chosen: every positive score counts") = forAll(genCase) { case (g, c, _) =>
    agrees(g, c, Array.emptyIntArray)
  }

  property("candidates with no column in the row") = forAll(genCase) { case (g, c, ch) =>
    val cands = c ++ c.map(far(_, 100))
    agrees(g, cands, ch ++ ch.map(_ + c.length))
  }

  property("duplicate candidates, both chosen") = forAll(genCase) { case (g, c, ch) =>
    agrees(g, c ++ c, ch ++ ch.map(_ + c.length))
  }

  property("row columns outside every candidate") = forAll(genCase, genSet) { case ((g, c, ch), extra) =>
    agrees(g.union(far(extra, 100)), c, ch)
  }

  property("one instance serves many rows, as in a gain round") =
    forAll(genCandidates.flatMap(c => genChosen(c.length).map((c, _))), Gen.listOf(genSet)) {
      case ((c, ch), rows) =>
        val cover = new GreedyCover(c)
        rows.foldLeft(Prop.passed)((p, g) => p && agrees(g, c, ch, cover))
    }
}
