package repro.core

import repro.graph.CsrGraph
import repro.linalg.{Cg, Dense}

/** Current-flow closeness centrality of node groups (Section II-E) and its
  * exact / solver-based evaluation.
  *
  * `C(S) = n / Tr(L_{-S}^{-1})` (Eq. 3). Dense evaluation is the ground truth
  * for tests and small-graph benches; the CG-based evaluators mirror the
  * paper's use of conjugate gradient to score solutions on graphs where dense
  * inversion is infeasible (Section V-B2).
  */
object Cfcc {

  /** Exact `Tr(L_{-S}^{-1})` by dense inversion. */
  def traceInvExact(g: CsrGraph, s: Set[Int]): Double = {
    require(s.nonEmpty)
    val (keep, inv) = Dense.submatrixInverse(g, s)
    Dense.trace(inv, keep.length)
  }

  /** Exact `C(S)`. */
  def exact(g: CsrGraph, s: Set[Int]): Double = g.n / traceInvExact(g, s)

  /** `Tr(L_{-S}^{-1})` by Hutchinson's estimator with Rademacher probes and
    * CG solves at `Cg.solve`'s default tolerance —
    * `E[zᵀ L_{-S}^{-1} z] = Tr(L_{-S}^{-1})` for ±1 entries z.
    */
  def traceInvCg(g: CsrGraph, s: Set[Int], probes: Int = 64, seed: Long = 42): Double = {
    require(s.nonEmpty)
    val rng = new java.util.SplittableRandom(seed)
    var sum = 0.0
    var p = 0
    while (p < probes) {
      val z = new Array[Double](g.n)
      var u = 0
      while (u < g.n) { if (!s.contains(u)) z(u) = if (rng.nextBoolean()) 1.0 else -1.0; u += 1 }
      val (x, _) = Cg.solve(g, s, z)
      var dot = 0.0
      u = 0
      while (u < g.n) { dot += z(u) * x(u); u += 1 }
      sum += dot
      p += 1
    }
    sum / probes
  }

  /** `C(S)` via [[traceInvCg]]. */
  def approxCg(g: CsrGraph, s: Set[Int], probes: Int = 64, seed: Long = 42): Double =
    g.n / traceInvCg(g, s, probes, seed)

  /** Exact diagonal of the Laplacian pseudoinverse (first-iteration scores:
    * `Σ_v R(u,v) = Tr(L†) + n·L†_uu`, Eq. 4).
    */
  def pseudoinverseDiag(g: CsrGraph): Array[Double] = {
    val lap = Dense.laplacian(g)
    val pinv = Dense.pseudoinverse(lap, g.n)
    Array.tabulate(g.n)(u => Dense.get(pinv, g.n, u, u))
  }

  /** Exact marginal gain `Δ(u,S) = (L_{-S}^{-2})_uu / (L_{-S}^{-1})_uu`
    * (Eq. 5) for all u ∉ S — the test oracle for FORESTDELTA / SCHURDELTA.
    */
  def exactDelta(g: CsrGraph, s: Set[Int]): Map[Int, Double] = {
    require(s.nonEmpty)
    val (keep, inv) = Dense.submatrixInverse(g, s)
    val k = keep.length
    keep.zipWithIndex.map { case (node, i) =>
      node -> Dense.colNormSq(inv, k, i) / Dense.get(inv, k, i, i)
    }.toMap
  }
}
