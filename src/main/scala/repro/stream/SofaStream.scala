package repro.stream

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.streaming.{StreamingQuery, Trigger}

import repro.core.{LeftVertex, Sofa, SofaDistributed, SparseVec}

/** Structured-Streaming front end for sofa.
  *
  * The paper's stream of left vertices maps to micro-batches: every
  * batch is clustered distributively (per-partition Algorithm 2 →
  * weighted centers), and the batch's centers are merged into the
  * running center set by replaying them through the same algorithm —
  * legal because both coresets and Misra–Gries sketches are mergeable.
  * The persistent state is therefore `O(c_max · s)` — sublinear in the
  * stream length, exactly as in the single-machine algorithm.
  */
final class SofaStreamState(val cfg: Sofa.Config) extends Serializable {

  @volatile private var centerState: IndexedSeq[Sofa.Center] = Vector.empty
  @volatile private var seen: Long = 0L
  @volatile private var lastBatch: Long = -1L

  def centers: IndexedSeq[Sofa.Center] = centerState
  def verticesSeen: Long = seen

  /** Fold one micro-batch into the state. */
  def update(batch: Dataset[LeftVertex]): Unit = {
    val batchCenters = SofaDistributed.firstPass(batch, cfg)
    if (batchCenters.isEmpty) return
    seen += batchCenters.map(_.weight).sum
    centerState = Sofa.cluster((centerState ++ batchCenters).iterator, cfg)
  }

  /** Fold micro-batch `batchId` exactly once: a batch whose id is not
    * above the last one folded in is a replay (Structured Streaming
    * re-runs a batch after a failure) and is skipped.
    */
  def update(batch: Dataset[LeftVertex], batchId: Long): Unit =
    if (batchId > lastBatch) {
      update(batch)
      lastBatch = batchId
    }

  /** Current right clusters at threshold θ (k-medians postprocessing). */
  def rightClusters(theta: Double): Array[SparseVec] =
    Sofa.postprocessKMedians(centerState, cfg, theta)

  /** Current per-center candidate clusters (BMF variant, Section 5.3). */
  def candidateClusters(theta: Double): Array[SparseVec] =
    Sofa.postprocessPerCenter(centerState, theta).filter(_.nnz > 0)
}

object SofaStream {

  /** Attach the state to a streaming Dataset of left vertices. The
    * returned query must be stopped by the caller.
    */
  def start(
      stream: Dataset[LeftVertex],
      state: SofaStreamState,
      queryName: String = "sofa-stream",
  ): StreamingQuery =
    stream.writeStream
      .queryName(queryName)
      .outputMode("append")
      .trigger(Trigger.ProcessingTime(0L))
      .foreachBatch { (batch: Dataset[LeftVertex], batchId: Long) =>
        state.update(batch, batchId)
      }
      .start()
}
