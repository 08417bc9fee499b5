package repro.core

import repro.graph.CsrGraph
import repro.linalg.Dense

/** EXACT greedy baseline (Section V-A): greedy CFCM with exact marginal
  * gains from dense matrix inversion.
  *
  * Cost is one O(n³) inversion for the first iteration plus an O(n²) Schur
  * *downdate* per subsequent pick (removing a row/column from an inverted
  * matrix needs no re-inversion), so EXACT is usable to a few thousand nodes
  * — mirroring the paper, where it is marked infeasible beyond that.
  */
object ExactGreedy {

  /** Greedy result: the selected nodes in pick order and `Tr(L_{-S_i}^{-1})`
    * after each pick (for effectiveness curves).
    */
  final case class Result(picks: Seq[Int], traces: Seq[Double])

  def run(g: CsrGraph, k: Int): Result = {
    require(k >= 1 && k < g.n)
    val n = g.n
    // First pick: argmin of diag(L†) — Eq. (4).
    val pdiag = Cfcc.pseudoinverseDiag(g)
    var first = 0
    for (u <- 1 until n) if (pdiag(u) < pdiag(first)) first = u

    val picks = scala.collection.mutable.ArrayBuffer(first)
    val traces = scala.collection.mutable.ArrayBuffer.empty[Double]
    // Maintain M = L_{-S}^{-1} over the surviving index list.
    var (keep, m) = Dense.submatrixInverse(g, Set(first))
    traces += Dense.trace(m, keep.length)
    var i = 1
    while (i < k) {
      val sz = keep.length
      // Δ(u,S) = ||M e_u||² / M_uu — pick the max (Eq. 5).
      var best = 0; var bestDelta = -1.0
      var j = 0
      while (j < sz) {
        val delta = Dense.colNormSq(m, sz, j) / Dense.get(m, sz, j, j)
        if (delta > bestDelta) { bestDelta = delta; best = j }
        j += 1
      }
      picks += keep(best)
      m = Dense.downdate(m, sz, best)
      keep = keep.patch(best, Nil, 1)
      traces += Dense.trace(m, keep.length)
      i += 1
    }
    Result(picks.toSeq, traces.toSeq)
  }
}
