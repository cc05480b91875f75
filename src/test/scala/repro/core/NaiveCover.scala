package repro.core

/** Reference greedy cover of Section 4.2: every round rescans every
  * cluster with [[SecondPass.score]] (`rounds × clusters × |A| log`).
  * The differential tests check the indexed [[GreedyCover]] against it.
  */
object NaiveCover {

  /** The picks in order, each with the score it earned when taken. */
  def coverVertexWithScores(
      g: SparseVec,
      rightClusters: Array[SparseVec],
  ): Array[(Int, Long)] = {
    val picked = scala.collection.mutable.ArrayBuffer.empty[(Int, Long)]
    var y = SparseVec.empty
    var continue = true
    var rounds = 0
    while (continue && rounds < rightClusters.length) {
      var best = -1; var bestScore = 0
      var i = 0
      while (i < rightClusters.length) {
        val s = SecondPass.score(rightClusters(i), g, y)
        if (s > bestScore) { bestScore = s; best = i }
        i += 1
      }
      if (best < 0) continue = false
      else {
        picked += ((best, bestScore.toLong))
        y = y.union(rightClusters(best))
        rounds += 1
      }
    }
    picked.toArray
  }

  def coverVertex(g: SparseVec, rightClusters: Array[SparseVec]): Array[Int] =
    coverVertexWithScores(g, rightClusters).map(_._1)
}
