package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Reference first pass of sofa (Algorithm 2): every item is compared
  * with every open center by [[SparseVec.asymDistTo]]. The differential
  * tests check the indexed [[Sofa.cluster]] against it: same centers in
  * the same order, same vectors, weights and sketches.
  */
object NaiveSofa {

  /** A phase that ended in a restart: the items it read in order and
    * the centers it opened in order. The `i`-th such phase ran at
    * LB `2^i`.
    */
  final case class Phase(read: Vector[Sofa.Center], opened: Vector[Sofa.Center])

  /** `onRestart(centerOverflow)` is called on every LB doubling: `true`
    * when the center budget overflowed, `false` when the cost did.
    * `onPhase` then gets the phase that restarted.
    */
  def cluster(
      items: Iterator[Sofa.Center],
      cfg: Sofa.Config,
      onRestart: Boolean => Unit = _ => (),
      onPhase: Phase => Unit = _ => (),
  ): IndexedSeq[Sofa.Center] = {
    val rng = new Random(cfg.seed)
    var lb = 1.0
    var restarts = 0
    var pending: Iterator[Sofa.Center] = items

    while (true) {
      val centers = ArrayBuffer.empty[Sofa.Center]
      val f = lb / (cfg.k * (1.0 + math.log(cfg.nRight.toDouble)))
      var cost = 0.0
      var overflow = false
      val read = Vector.newBuilder[Sofa.Center]

      while (pending.hasNext && !overflow) {
        val u = pending.next()
        read += u
        if (centers.isEmpty) {
          centers += u
        } else {
          var best = 0; var bestD = Double.MaxValue
          var j = 0
          while (j < centers.length) {
            val d = centers(j).vec.asymDistTo(u.vec, cfg.alpha)
            if (d < bestD) { bestD = d; best = j }
            j += 1
          }
          val sampled = restarts < cfg.maxRestarts &&
            rng.nextDouble() < math.min(u.weight.toDouble * bestD / f, 1.0)
          if (sampled) {
            centers += u
            if (centers.length >= cfg.cMax) overflow = true
          } else {
            cost += u.weight.toDouble * bestD
            val c = centers(best)
            c.weight += u.weight
            c.mg.merge(u.mg)
            if (cost > 2.0 * lb) overflow = true
          }
        }
      }

      if (!overflow && !pending.hasNext) return centers.toIndexedSeq

      onRestart(centers.length >= cfg.cMax)
      onPhase(Phase(read.result(), centers.toVector))
      lb *= 2.0
      restarts += 1
      val unread = pending
      pending = centers.iterator ++ unread
    }
    sys.error("unreachable")
  }
}
