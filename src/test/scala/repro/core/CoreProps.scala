package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll

/** ScalaCheck property suites for the two core substrates. These run
  * under sbt via ScalaCheck's own test framework.
  */
object SparseVecProps extends Properties("SparseVec") {

  private val genVec: Gen[SparseVec] =
    Gen.listOf(Gen.choose(0, 120)).map(l => SparseVec.fromArray(l.toArray))

  property("hamming is symmetric") = forAll(genVec, genVec) { (a, b) =>
    a.hamming(b) == b.hamming(a)
  }

  property("hamming(a,a) == 0") = forAll(genVec)(a => a.hamming(a) == 0)

  property("hamming equals |A△B|") = forAll(genVec, genVec) { (a, b) =>
    a.hamming(b) == (a.toSet diff b.toSet).size + (b.toSet diff a.toSet).size
  }

  property("triangle inequality") = forAll(genVec, genVec, genVec) { (a, b, c) =>
    a.hamming(c) <= a.hamming(b) + b.hamming(c)
  }

  property("union is commutative") = forAll(genVec, genVec) { (a, b) =>
    a.union(b) == b.union(a)
  }

  property("union/diff/intersect set semantics") = forAll(genVec, genVec) { (a, b) =>
    Prop(a.union(b).toSet == (a.toSet union b.toSet)) &&
      Prop(a.diff(b).toSet == (a.toSet diff b.toSet)) &&
      Prop(a.intersectSize(b) == (a.toSet intersect b.toSet).size)
  }

  property("asym distance with alpha=1 is hamming") = forAll(genVec, genVec) { (c, u) =>
    math.abs(c.asymDistTo(u, 1.0) - c.hamming(u)) < 1e-9
  }

  property("asym distance is nonnegative and bounded by hamming for alpha<=1") =
    forAll(genVec, genVec, Gen.choose(0.0, 1.0)) { (c, u, alpha) =>
      val d = c.asymDistTo(u, alpha)
      d >= -1e-12 && d <= c.hamming(u) + 1e-9
    }
}

object MisraGriesProps extends Properties("MisraGries") {

  private val genStream: Gen[List[Int]] =
    Gen.listOf(Gen.frequency(5 -> Gen.choose(0, 5), 1 -> Gen.choose(6, 50)))

  property("estimate <= true frequency (no overcount)") =
    forAll(genStream, Gen.choose(2, 20)) { (xs, cap) =>
      val mg = MisraGries(cap)
      xs.foreach(mg.add(_))
      val truth = xs.groupBy(identity).view.mapValues(_.size.toLong)
      truth.forall { case (j, f) => mg.estimate(j) <= f }
    }

  property("undercount bounded by N/(cap+1)") =
    forAll(genStream, Gen.choose(2, 20)) { (xs, cap) =>
      val mg = MisraGries(cap)
      xs.foreach(mg.add(_))
      val err = mg.totalWeight / (cap + 1L)
      val truth = xs.groupBy(identity).view.mapValues(_.size.toLong)
      truth.forall { case (j, f) => mg.estimate(j) >= f - err }
    }

  property("merge keeps the combined guarantee") =
    forAll(genStream, genStream, Gen.choose(2, 16)) { (xs, ys, cap) =>
      val a = MisraGries(cap); xs.foreach(a.add(_))
      val b = MisraGries(cap); ys.foreach(b.add(_))
      a.merge(b)
      val err = a.totalWeight / (cap + 1L)
      val truth = (xs ++ ys).groupBy(identity).view.mapValues(_.size.toLong)
      a.totalWeight == xs.length + ys.length &&
        truth.forall { case (j, f) => a.estimate(j) <= f && a.estimate(j) >= f - err }
    }

  property("size never exceeds capacity") =
    forAll(genStream, Gen.choose(1, 10)) { (xs, cap) =>
      val mg = MisraGries(cap)
      xs.foreach(mg.add(_))
      mg.size <= cap
    }

  /** Weighted adds (item 0 often, the key a `LongMap` kept apart),
    * sometimes merged with a second sketch, sometimes restored from its
    * entries into the same or a smaller capacity; small capacities, so
    * many sketches compact and drop counters.
    */
  val genSketch: Gen[MisraGries] = {
    val genAdds = Gen.listOf(Gen.zip(
      Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(0, 60)), Gen.choose(1L, 20L)))
    def build(cap: Int, adds: List[(Int, Long)]) = {
      val mg = MisraGries(cap)
      adds.foreach { case (j, w) => mg.add(j, w) }
      mg
    }
    for {
      cap <- Gen.choose(1, 12)
      xs <- genAdds
      ys <- Gen.option(genAdds)
      restoreCap <- Gen.option(Gen.choose(1, cap))
    } yield {
      val mg = build(cap, xs)
      ys.foreach(adds => mg.merge(build(cap, adds)))
      restoreCap.fold(mg) { c =>
        val es = mg.entries.toArray
        MisraGries.restore(c, es.map(_._1), es.map(_._2), mg.totalWeight)
      }
    }
  }

  property("entryArrays equals entries, in the same order") =
    forAll(genSketch) { mg =>
      val (items, counts) = mg.entryArrays
      val es = mg.entries.toArray
      Prop.classify(mg.estimate(0) > 0, "holds item 0")(
        Prop.classify(es.map(_._2).sum < mg.totalWeight, "compacted")(
          items.sameElements(es.map(_._1)) && counts.sameElements(es.map(_._2))))
    }
}

/** Differential test of [[MisraGries]] against [[NaiveMisraGries]], the
  * `LongMap` layout it replaced: the same operations on both give the
  * same (item, counter) set and `totalWeight` after every step, and
  * [[MisraGries.entries]] lists the items in ascending order.
  */
object MisraGriesDiffProps extends Properties("MisraGriesDiff") {
  import Prop.propBoolean

  private sealed trait Op
  private final case class Add(j: Int, w: Long) extends Op
  /** Merge the sketch of one vector at weight `w`. */
  private final case class MergeVec(v: SparseVec, w: Long) extends Op
  /** Merge a sketch over a random subset of the live items. */
  private final case class MergeLive(seed: Long) extends Op
  /** Replace the sketch by its entries, shuffled when `seed` is set,
    * with `dupes` earlier entries repeated at the front, at capacity `cap`.
    */
  private final case class Restore(cap: Int, seed: Option[Long], dupes: Int) extends Op
  private case object Copy extends Op

  private val genItem: Gen[Int] = Gen.choose(0, 30)
  private val genWeight: Gen[Long] = Gen.frequency(1 -> Gen.const(0L), 8 -> Gen.choose(1L, 20L))
  private val genVec: Gen[SparseVec] =
    Gen.listOf(genItem).map(l => SparseVec.fromArray(l.toArray))

  private val genOp: Gen[Op] = Gen.frequency(
    4 -> Gen.zip(genItem, genWeight).map(Add.tupled),
    4 -> Gen.zip(genVec, genWeight).map(MergeVec.tupled),
    3 -> Gen.long.map(MergeLive),
    2 -> Gen.zip(Gen.choose(1, 12), Gen.option(Gen.long), Gen.choose(0, 3)).map(Restore.tupled),
    1 -> Gen.const(Copy),
  )

  private def same(fast: MisraGries, naive: NaiveMisraGries): Boolean =
    fast.entries.toSeq == naive.entries.toSeq.sorted &&
      fast.totalWeight == naive.totalWeight && fast.size == naive.size

  property("every operation sequence gives the naive sketch's counters") =
    forAll(Gen.choose(1, 12), genVec, genWeight, Gen.listOf(genOp)) { (cap, v0, w0, ops) =>
      var fast = MisraGries.ofVector(v0, cap, w0)
      var naive = NaiveMisraGries.ofVector(v0, cap, w0)
      val start = same(fast, naive) :| s"ofVector: ${fast.entries.toSeq} vs ${naive.entries.toSeq.sorted}"
      var vectorCompacted = v0.nnz > cap && w0 > 0
      var inPlace = false
      var unsorted = false
      val steps = ops.map { op =>
        op match {
          case Add(j, w) => fast.add(j, w); naive.add(j, w)
          case MergeVec(v, w) =>
            vectorCompacted ||= v.nnz > fast.capacity && w > 0
            fast.merge(MisraGries.ofVector(v, fast.capacity, w))
            naive.merge(NaiveMisraGries.ofVector(v, naive.capacity, w))
          case MergeLive(seed) =>
            val rng = new scala.util.Random(seed)
            val (items, _) = fast.entryArrays
            val picked = items.filter(_ => rng.nextBoolean())
            val counts = picked.map(_ => 1L + rng.nextInt(20))
            val total = counts.sum + rng.nextInt(5)
            inPlace ||= picked.nonEmpty
            fast.merge(MisraGries.restore(fast.capacity, picked, counts, total))
            naive.merge(NaiveMisraGries.restore(naive.capacity, picked, counts, total))
          case Restore(cap, seed, dupes) =>
            val (is, cs) = fast.entryArrays
            val order = seed.fold(is.indices.toVector)(s => new scala.util.Random(s).shuffle(is.indices.toVector))
            val rows = order.take(dupes).map(i => (is(i), cs(i) + 1)) ++ order.map(i => (is(i), cs(i)))
            val items = rows.map(_._1).toArray
            unsorted ||= items.indices.drop(1).exists(i => items(i - 1) >= items(i))
            fast = MisraGries.restore(cap, items, rows.map(_._2).toArray, fast.totalWeight)
            naive = NaiveMisraGries.restore(cap, items, rows.map(_._2).toArray, naive.totalWeight)
          case Copy =>
            val (f, n) = (fast, naive)
            fast = f.copy(); naive = n.copy()
            f.add(0, 7); n.add(0, 7)
        }
        same(fast, naive) :| s"after $op: ${fast.entries.toSeq} vs ${naive.entries.toSeq.sorted}"
      }
      Prop.classify(vectorCompacted, "ofVector compacts")(
        Prop.classify(inPlace, "in-place merge")(
          Prop.classify(unsorted, "unsorted restore")(
            Prop.all(start +: steps: _*))))
    }
}

/** `Sofa.threshold` against the tuple-and-sort expression it replaced. */
object SofaThresholdProps extends Properties("Sofa.threshold") {
  import Prop.propBoolean

  /** (θ, W): θ = 0, θ > 1, cuts exactly on a counter value (W = 1, or
    * W a power of two with θ = c / W), and arbitrary ones.
    */
  private def genCut(mg: MisraGries): Gen[(Double, Long)] = {
    val counters = mg.entries.map(_._2).toVector
    val onCounter =
      if (counters.isEmpty) Gen.const((0.5, 2L))
      else for {
        c <- Gen.oneOf(counters)
        p <- Gen.choose(0, 4)
      } yield (c.toDouble / (1L << p), 1L << p)
    Gen.frequency(
      1 -> Gen.choose(0L, 400L).map(w => (0.0, w)),
      1 -> Gen.zip(Gen.choose(1.0, 4.0), Gen.choose(1L, 400L)),
      3 -> onCounter,
      3 -> Gen.zip(Gen.choose(0.0, 1.0), Gen.choose(0L, mg.totalWeight * 2)),
    )
  }

  property("threshold equals the filtered entries, sorted") =
    forAll(MisraGriesProps.genSketch.flatMap(mg => genCut(mg).map(c => (mg, c)))) { case (mg, (theta, w)) =>
      val cut = theta * w
      val want = SparseVec.fromArray(mg.entries.collect { case (j, c) if c >= cut => j }.toArray)
      val got = Sofa.threshold(mg, theta, w)
      val compacted = mg.entries.map(_._2).sum < mg.totalWeight
      Prop.classify(compacted, "compacted")(
        Prop.classify(mg.entries.exists(_._2 == cut), "cut on a counter")(
          (got.idx.sameElements(want.idx)) :| s"θ = $theta, W = $w: $got vs $want"))
    }
}

/** Differential test of the indexed greedy cover against [[NaiveCover]]. */
object GreedyCoverProps extends Properties("GreedyCover") {
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

  /** A neighborhood built from some candidates plus noise, so covers
    * take several rounds.
    */
  private def genG(cands: Array[SparseVec]): Gen[SparseVec] = for {
    parts <- Gen.someOf(cands.toSeq)
    noise <- genSet
    drop <- genSet
  } yield parts.foldLeft(noise)(_.union(_)).diff(drop)

  private val genCase: Gen[(SparseVec, Array[SparseVec])] = for {
    cands <- genCandidates
    g <- genG(cands)
  } yield (g, cands)

  /** Same picks, order and scores as the naive loop, and TP and cover
    * size equal to a recomputation from the union of the picks.
    */
  private def agrees(
      g: SparseVec,
      cands: Array[SparseVec],
      cover: Option[GreedyCover] = None,
  ): Prop = {
    val ref = NaiveCover.coverVertexWithScores(g, cands)
    val got = cover.getOrElse(new GreedyCover(cands)).run(g)
    val union = got.picks.foldLeft(SparseVec.empty)((y, i) => y.union(cands(i)))
    (got.picks.toSeq == ref.map(_._1).toSeq) :| s"picks ${got.picks.toSeq} vs ${ref.toSeq}" &&
      (got.gains.toSeq == ref.map(_._2).toSeq) :| s"gains ${got.gains.toSeq} vs ${ref.toSeq}" &&
      (got.truePositives == g.intersectSize(union)) :| "true positives" &&
      (got.coverSize == union.nnz) :| "cover size"
  }

  property("indexed cover equals the naive cover") = forAll(genCase) { case (g, c) => agrees(g, c) }

  property("duplicate candidates: ties go to the lowest index") = forAll(genCase) { case (g, c) =>
    val twice = c ++ c
    agrees(g, twice) && new GreedyCover(twice).run(g).picks.forall(_ < c.length)
  }

  property("empty candidate array picks nothing") = forAll(genSet) { g =>
    agrees(g, Array.empty) && new GreedyCover(Array.empty).run(g).picks.isEmpty
  }

  property("empty neighborhood picks nothing") = forAll(genCandidates) { c =>
    agrees(SparseVec.empty, c) && new GreedyCover(c).run(SparseVec.empty).picks.isEmpty
  }

  property("neighborhood columns outside every candidate") =
    forAll(genCase, genSet) { case ((g, c), far) =>
      agrees(g.union(SparseVec.fromArray(far.idx.map(_ + 100))), c)
    }

  property("one instance covers many vertices in turn") =
    forAll(genCandidates, Gen.listOf(genSet)) { (c, gs) =>
      val cover = Some(new GreedyCover(c))
      gs.foldLeft(Prop.passed)((p, g) => p && agrees(g, c, cover))
    }
}

/** Differential test of the indexed first pass [[Sofa.cluster]]
  * against the linear scan of [[NaiveSofa]].
  */
object SofaClusterProps extends Properties("SofaCluster") {
  import Prop.propBoolean

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(300)

  /** One stream item: its vector, plus the member vectors already merged
    * into it (none for a fresh vertex).
    */
  private final case class Item(vec: SparseVec, members: List[SparseVec])

  /** Columns, a few far above the others. */
  private val genCol: Gen[Int] =
    Gen.frequency(20 -> Gen.choose(0, 40), 1 -> Gen.choose(5000, 5010))

  /** Mostly short vectors over few columns, so that distances to
    * different centers often tie; some long ones, some empty.
    */
  private val genVec: Gen[SparseVec] = Gen.frequency(
    6 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.choose(0, 8))).map(l => SparseVec.fromArray(l.toArray)),
    3 -> Gen.listOf(genCol).map(l => SparseVec.fromArray(l.toArray)),
    1 -> Gen.const(SparseVec.empty),
  )

  private val genItem: Gen[Item] = Gen.frequency(
    4 -> genVec.map(Item(_, Nil)),
    1 -> (for { v <- genVec; ms <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, genVec)) } yield Item(v, ms)),
  )

  /** Items, possibly none, with some repeated verbatim (duplicate vectors). */
  private val genItems: Gen[Vector[Item]] = for {
    base <- Gen.listOf(genItem)
    repeats <- Gen.listOf(Gen.choose(0, 1000))
  } yield {
    val b = base.toVector
    if (b.isEmpty) b else b ++ repeats.map(r => b(r % b.length))
  }

  private val genConfig: Gen[Sofa.Config] = for {
    k <- Gen.choose(1, 3)
    extra <- Gen.choose(1, 6)
    cap <- Gen.choose(2, 12)
    alpha <- Gen.oneOf(0.1, 1.0)
    seed <- Gen.choose(0L, 1000L)
    // Once `maxRestarts` is reached everything merges into the first
    // re-streamed center, so only passes that still sample see ties
    // between centers; a large cap lets LB grow until they merge.
    maxRestarts <- Gen.frequency(1 -> Gen.choose(0, 3), 2 -> Gen.choose(4, 64))
  } yield Sofa.Config(k = k, cMax = k + extra, nRight = 5011, mgCapacity = cap,
    alpha = alpha, seed = seed, maxRestarts = maxRestarts)

  /** Fresh centers for `items`: `cluster` mutates what it is given. */
  private def centers(items: Vector[Item], cfg: Sofa.Config): Vector[Sofa.Center] =
    items.map { it =>
      val mg = MisraGries.ofVector(it.vec, cfg.mgCapacity)
      it.members.foreach(m => mg.merge(MisraGries.ofVector(m, cfg.mgCapacity)))
      new Sofa.Center(it.vec, 1L + it.members.length, mg)
    }

  /** 200 cases drawn at seed 1: the properties that the generators
    * reach a case are proved on these.
    */
  private lazy val seededCases: List[(Vector[Item], Sofa.Config)] =
    Gen.listOfN(200, Gen.zip(genItems, genConfig))
      .apply(Gen.Parameters.default, org.scalacheck.rng.Seed(1L)).get

  /** Which input item each output center is, and what it holds. */
  private def summary(in: Vector[Sofa.Center], out: IndexedSeq[Sofa.Center]) =
    out.map(c => (in.indexWhere(_ eq c), c.vec, c.weight, c.mg.totalWeight, c.mg.entries.toSeq.sorted))

  property("indexed first pass equals the naive scan") = forAll(genItems, genConfig) { (items, cfg) =>
    val a = centers(items, cfg)
    val b = centers(items, cfg)
    var restarts = Set.empty[Boolean]
    val ref = summary(b, NaiveSofa.cluster(b.iterator, cfg, restarts += _))
    val got = summary(a, Sofa.cluster(a.iterator, cfg))
    Prop.classify(restarts(true), "center overflow")(
      Prop.classify(restarts(false), "cost overflow")(
        (got == ref) :| s"got $got\nnaive $ref"))
  }

  property("generated streams restart on both center and cost overflow") = Prop {
    var kinds = Set.empty[Boolean]
    seededCases.foreach { case (items, cfg) => NaiveSofa.cluster(centers(items, cfg).iterator, cfg, kinds += _) }
    kinds == Set(true, false)
  }

  /** The phases of the naive run on `items`. */
  private def phases(items: Vector[Item], cfg: Sofa.Config): Vector[NaiveSofa.Phase] = {
    val out = Vector.newBuilder[NaiveSofa.Phase]
    NaiveSofa.cluster(centers(items, cfg).iterator, cfg, onPhase = out += _)
    out.result()
  }

  /** Whether the naive run on `items` has a merge-free restart phase
    * that re-opens exactly the centers of the merge-free phase before
    * it, in order, at the doubled LB. `Sofa.cluster` answers every item
    * of such a phase from its record, with no index query.
    */
  private def repeatsAPhase(items: Vector[Item], cfg: Sofa.Config): Boolean = {
    val ps = phases(items, cfg)
    def mergeFree(p: NaiveSofa.Phase): Boolean = p.read.length == p.opened.length
    ps.indices.drop(1).exists { i =>
      mergeFree(ps(i - 1)) && mergeFree(ps(i)) && ps(i).opened.corresponds(ps(i - 1).opened)(_ eq _)
    }
  }

  property("generated streams repeat a merge-free restart phase") =
    Prop(seededCases.exists { case (items, cfg) => repeatsAPhase(items, cfg) })

  /** Which edge cases of restart reuse the naive run on `items` reaches.
    * Phase `i + 1` re-streams `again(i + 1)`: the centers of phase `i`,
    * then the re-streamed items phase `i` left unread.
    *  - "recomputed": a center of phase `i` that phase `i + 1` reads
    *    after merging the center nearest to it among the earlier
    *    centers of phase `i`, so its record cannot answer;
    *  - "truncated": phase `i + 1` reads a center of phase `i` and
    *    merges it, so the index drops the rest of phase `i`'s centers;
    *  - "unread": phase `i + 1` overflows before it has read all it
    *    re-streams.
    */
  private def reuseCases(items: Vector[Item], cfg: Sofa.Config): Set[String] = {
    val ps = phases(items, cfg)
    val again = ps.indices.scanLeft(Vector.empty[Sofa.Center]) { (a, i) =>
      ps(i).opened ++ a.drop(ps(i).read.length)
    }
    (0 until ps.length - 1).flatMap { i =>
      val (prev, next) = (ps(i).opened, ps(i + 1))
      def readAt(c: Sofa.Center): Int = next.read.indexWhere(_ eq c)
      def merged(c: Sofa.Center): Boolean = readAt(c) >= 0 && !next.opened.exists(_ eq c)
      val recomputed = prev.indices.drop(1).exists { q =>
        val nearest = (0 until q).minBy(p => (prev(p).vec.asymDistTo(prev(q).vec, cfg.alpha), p))
        readAt(prev(q)) >= 0 && merged(prev(nearest))
      }
      val truncated = prev.exists(merged)
      val unread = next.read.length < again(i + 1).length
      Seq("recomputed" -> recomputed, "truncated" -> truncated, "unread" -> unread).collect { case (k, true) => k }
    }.toSet
  }

  property("generated streams reach every edge case of restart reuse") = {
    val reached = seededCases.map { case (items, cfg) => reuseCases(items, cfg) }.reduce(_ ++ _)
    (reached == Set("recomputed", "truncated", "unread")) :| s"reached $reached"
  }
}

/** The θ fit gives the log-likelihoods and the θ of [[NaiveTheta]], bit for bit. */
object ThetaHeuristicProps extends Properties("ThetaHeuristic") {
  import Prop.propBoolean
  import ThetaHeuristic.ClusterCounters

  /** Parts of the default grids plus the pairs (0.75, 0.25) and
    * (0.875, 0.125), whose θ is exactly 0.5.
    */
  private val genGrids: Gen[(Seq[Double], Seq[Double])] = for {
    ps <- Gen.someOf(ThetaHeuristic.DefaultPGrid ++ Seq(0.75, 0.875))
    qs <- Gen.someOf(ThetaHeuristic.DefaultQGrid ++ Seq(0.25, 0.125))
  } yield (ps.toSeq, qs.toSeq)

  /** Empty sketches, zero weights, and counters at, just below and just
    * above the cut `θ·w` of a grid pair, as well as arbitrary ones; with
    * θ = 0.5 and an even `w` the counter lies exactly at the cut.
    */
  private def genCluster(thetas: Seq[Double]): Gen[ClusterCounters] = for {
    w <- Gen.frequency(1 -> Gen.const(0L), 6 -> Gen.choose(1L, 400L))
    counters <- Gen.listOf(Gen.frequency(
      3 -> Gen.choose(0L, w),
      2 -> Gen.oneOf(0.5 +: thetas).flatMap(t => Gen.oneOf(
        math.floor(t * w).toLong, math.ceil(t * w).toLong, math.ceil(t * w).toLong + 1)),
    ))
  } yield ClusterCounters(counters.toArray, w)

  /** First-pass centers: sketches of every shape, weights equal to the
    * sketch's offered weight or arbitrary (zero included).
    */
  private val genCenter: Gen[Sofa.Center] = for {
    mg <- MisraGriesProps.genSketch
    w <- Gen.frequency(3 -> Gen.const(mg.totalWeight), 1 -> Gen.choose(0L, 400L))
  } yield new Sofa.Center(SparseVec.empty, w, mg)

  property("selectFromCenters equals select over entries-built counters") =
    forAll(Gen.nonEmptyListOf(genCenter), Gen.choose(1, 200)) { (cs, nRight) =>
      def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
      val got = ThetaHeuristic.selectFromCenters(cs, nRight)
      val ref = ThetaHeuristic.select(
        cs.map(c => ClusterCounters(c.mg.entries.map(_._2).toArray, c.weight)), nRight)
      (bits(got) == bits(ref)) :| s"θ $got vs $ref"
    }

  property("likelihoods and θ equal the per-counter-log reference") = forAll(genGrids) { case (ps, qs) =>
    val pairs = for (p <- ps; q <- qs if q < p) yield (p, q)
    forAll(Gen.nonEmptyListOf(genCluster(pairs.map((ThetaHeuristic.thetaFor _).tupled))), Gen.choose(1, 500)) {
      (cs, nRight) =>
        def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
        Prop.all(pairs.map { case (p, q) =>
          val got = ThetaHeuristic.logLikelihood(cs, nRight, p, q)
          val ref = NaiveTheta.logLikelihood(cs, nRight, p, q)
          (bits(got) == bits(ref)) :| s"log-likelihood at ($p, $q): $got vs $ref"
        }: _*) && {
          val got = ThetaHeuristic.select(cs, nRight, ps, qs)
          val ref = NaiveTheta.select(cs, nRight, ps, qs)
          (bits(got) == bits(ref)) :| s"θ $got vs $ref"
        }
    }
  }
}

/** Differential test of [[CenterIndex]] against a linear argmin of
  * [[SparseVec.asymDistTo]], the scan it replaced in `Sofa.cluster`,
  * `KMedians` and static sofa.
  */
object CenterIndexProps extends Properties("CenterIndex") {
  import Prop.propBoolean

  /** Mostly short vectors over few columns, so distances often tie. */
  private val genVec: Gen[SparseVec] = Gen.frequency(
    6 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.choose(0, 8))).map(l => SparseVec.fromArray(l.toArray)),
    3 -> Gen.listOf(Gen.choose(0, 40)).map(l => SparseVec.fromArray(l.toArray)),
    1 -> Gen.const(SparseVec.empty),
  )

  /** Centers, possibly none, some repeated verbatim. */
  private val genCenters: Gen[Vector[SparseVec]] = for {
    base <- Gen.listOf(genVec)
    repeats <- Gen.listOf(Gen.choose(0, 1000))
  } yield {
    val b = base.toVector
    if (b.isEmpty) b else b ++ repeats.map(r => b(r % b.length))
  }

  /** Queries, some with columns past every center. */
  private val genQueries: Gen[List[SparseVec]] = Gen.nonEmptyListOf(Gen.frequency(
    4 -> genVec,
    1 -> (for { v <- genVec; far <- Gen.nonEmptyListOf(Gen.choose(41, 5000)) }
      yield v.union(SparseVec.fromArray(far.toArray))),
  ))

  private val genAlpha: Gen[Double] = Gen.oneOf(0.1, 1.0)

  /** Every query's nearest center and distance equal the linear scan's
    * (lowest index on ties; −1 and `Double.MaxValue` with no center).
    */
  private def agrees(index: CenterIndex, centers: Vector[SparseVec], queries: List[SparseVec], alpha: Double): Prop =
    Prop.all(queries.map { u =>
      var best = -1; var bestD = Double.MaxValue
      centers.indices.foreach { i =>
        val d = centers(i).asymDistTo(u, alpha)
        if (d < bestD) { bestD = d; best = i }
      }
      val got = index.nearest(u, alpha)
      val gotD = index.nearestDist
      (got == best && java.lang.Double.doubleToRawLongBits(gotD) == java.lang.Double.doubleToRawLongBits(bestD)) :|
        s"query $u: index ($got, $gotD) vs scan ($best, $bestD)"
    }: _*)

  /** Each column's posting list, as [[GreedyCover]] reads it, holds
    * the ascending indices of the sets containing that column.
    */
  private def postingsAgree(index: CenterIndex, sets: Vector[SparseVec]): Prop = {
    val cols = sets.foldLeft(0)((m, v) => if (v.isEmpty) m else math.max(m, v.idx.last + 1))
    // Read the lists now: `&&` takes its right side by name, and the
    // caller changes the index before the property is evaluated.
    val columns = (0 until index.columns).map { j =>
      val len = index.postingLength(j)
      val got = if (len == 0) Seq.empty else index.postingList(j).take(len).toSeq
      val want = sets.indices.filter(i => sets(i).contains(j))
      (got == want) :| s"column $j: $got vs $want"
    }
    (index.columns >= cols) :| s"columns ${index.columns} < $cols" && Prop.all(columns: _*)
  }

  property("posting lists hold each column's sets in ascending order, also after clear()") =
    forAll(genCenters, genCenters) { (before, after) =>
      val index = new CenterIndex
      before.foreach(index.add)
      val first = postingsAgree(index, before)
      index.clear()
      after.foreach(index.add)
      first && postingsAgree(index, after)
    }

  property("nearest equals a linear argmin of asymDistTo") =
    forAll(genCenters, genQueries, genAlpha) { (cs, qs, alpha) =>
      val index = new CenterIndex
      cs.foreach(index.add)
      agrees(index, cs, qs, alpha)
    }

  /** Every posting list of `a` equals that of `b`; columns past the
    * end of either index have empty lists.
    */
  private def samePostings(a: CenterIndex, b: CenterIndex): Prop = {
    def list(x: CenterIndex, j: Int) =
      if (j >= x.columns || x.postingLength(j) == 0) Seq.empty else x.postingList(j).take(x.postingLength(j)).toSeq
    Prop.all((0 until math.max(a.columns, b.columns)).map { j =>
      val (got, want) = (list(a, j), list(b, j))
      (got == want) :| s"column $j: $got vs $want"
    }: _*)
  }

  property("truncate(m) equals a fresh index over the first m sets, also after clear() and with sets added after") =
    forAll(genCenters, genCenters, Gen.choose(0.0, 1.0), genCenters, genQueries, genAlpha) {
      (before, cs, frac, added, qs, alpha) =>
        val m = math.round(frac * cs.length).toInt
        val index = new CenterIndex
        before.foreach(index.add)
        index.clear()
        cs.foreach(index.add)
        index.truncate(m)
        val fresh = new CenterIndex
        cs.take(m).foreach(fresh.add)
        // Read the truncated index now: `&&` takes its right side by
        // name, and the sets below are added before it is evaluated.
        val size = (index.size == m) :| s"size ${index.size} != $m"
        val postings = samePostings(index, fresh)
        val queries = Prop.all(qs.map { u =>
          val (got, want) = (index.nearest(u, alpha), fresh.nearest(u, alpha))
          (got == want && java.lang.Double.doubleToRawLongBits(index.nearestDist) ==
            java.lang.Double.doubleToRawLongBits(fresh.nearestDist)) :| s"query $u: $got vs $want"
        }: _*)
        added.foreach(index.add)
        val grown = postingsAgree(index, cs.take(m) ++ added)
        size && postings && queries && grown && agrees(index, cs.take(m) ++ added, qs, alpha)
    }

  property("an index reused after clear() equals the scan over its new centers") =
    forAll(genCenters, genCenters, genQueries, genAlpha) { (before, after, qs, alpha) =>
      val index = new CenterIndex
      before.foreach(index.add)
      qs.foreach(index.nearest(_, alpha))
      index.clear()
      after.foreach(index.add)
      agrees(index, after, qs, alpha)
    }
}
