package repro.core

import repro.graph.CsrGraph

/** Exhaustive CFCM optimum for tiny graphs (Fig. 1's "OPTIMUM" reference):
  * enumerate every S with |S| = k and minimize `Tr(L_{-S}^{-1})` by dense
  * inversion. Cost C(n,k)·O(n³) — keep n ≤ ~60 and k ≤ 3.
  */
object Exhaustive {

  final case class Result(best: Set[Int], trace: Double)

  def optimum(g: CsrGraph, k: Int): Result = {
    require(k >= 1 && k <= 4, "exhaustive search is for tiny k only")
    var best: Set[Int] = null
    var bestTrace = Double.PositiveInfinity
    val idx = new Array[Int](k)

    def evalSet(): Unit = {
      val s = idx.toSet
      val tr = Cfcc.traceInvExact(g, s)
      if (tr < bestTrace) { bestTrace = tr; best = s }
    }

    def rec(pos: Int, from: Int): Unit = {
      if (pos == k) evalSet()
      else {
        var v = from
        while (v <= g.n - (k - pos)) { idx(pos) = v; rec(pos + 1, v + 1); v += 1 }
      }
    }
    rec(0, 0)
    Result(best, bestTrace)
  }
}
