package repro.core

/** The greedy CFCM loop shared by FORESTCFCM (Algorithm 3), SCHURCFCM
  * (Algorithm 5) and APPROXGREEDY: they differ only in how they estimate
  * `Δ(u,S)`.
  */
object Greedy {

  /** Reject group sizes outside `[1, n)` before any work is done. */
  def requireK(n: Int, k: Int): Unit =
    require(k >= 1 && k < n, s"group size k must satisfy 1 ≤ k < n = $n, got $k")

  /** Select k nodes starting from `first`: at iteration i (1 ≤ i < k),
    * `delta(S, i)` estimates `Δ(u,S)` for every node (entries for u ∈ S are
    * ignored) and the largest estimate outside S is added, ties to the
    * lowest id. Returns the picks in order.
    */
  def run(n: Int, k: Int, first: Int)(delta: (Set[Int], Int) => Array[Double]): Seq[Int] = {
    requireK(n, k)
    val picks = Vector.newBuilder[Int] += first
    var s = Set(first)
    for (i <- 1 until k) {
      val d = delta(s, i)
      var best = -1; var bestD = Double.NegativeInfinity
      var u = 0
      while (u < n) {
        if (!s.contains(u) && d(u) > bestD) { bestD = d(u); best = u }
        u += 1
      }
      picks += best
      s += best
    }
    picks.result()
  }
}
