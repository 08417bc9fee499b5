package repro.core

import repro.graph.CsrGraph

/** Heuristic baselines of Section V-A. */
object Heuristics {

  /** DEGREE: the k nodes of largest degree, ties to the lowest id. */
  def degreeTopK(g: CsrGraph, k: Int): Seq[Int] =
    (0 until g.n).sortBy(u => (-g.degree(u), u)).take(k)

  /** TOP-CFCC: the k nodes with the largest single-node CFCC, i.e. smallest
    * `L†_uu` (Section II-D), from the dense pseudoinverse — the effectiveness
    * comparisons score it only on graphs small enough for EXACT.
    */
  def topCfcc(g: CsrGraph, k: Int): Seq[Int] = {
    val score = Cfcc.pseudoinverseDiag(g)
    (0 until g.n).sortBy(u => (score(u), u)).take(k)
  }
}
