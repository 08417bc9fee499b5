package repro.bench

import repro.SparkSpec

/** Reproduces the paper's ε sweep (Figs. 4–5 as a table): running time and
  * relative difference of `C(S)` vs EXACT for ε ∈ [0.15, 0.4], k = 10.
  * Results land in `bench_results/epsilon_sweep.md`.
  */
class EpsilonSweepBench extends SparkSpec {

  test("ε sweep: time grows and the gap to EXACT shrinks as ε decreases") {
    val rows = Harness.epsSweep(spark, s => info(s))
    for ((name, cells) <- rows.groupBy(_.graph)) {
      val (loosest, tightest) = (cells.head, cells.last)
      // work grows as ε shrinks: the sampled-forest counts are deterministic
      // in ε (wall time at 1–2k nodes is dominated by the constant Spark
      // scheduling floor, so it is reported but not asserted)
      assert(tightest.forestForests > loosest.forestForests, s"$name: forest samples not growing with 1/ε")
      assert(tightest.schurForests > loosest.schurForests, s"$name: schur samples not growing with 1/ε")
      // solution quality at ε=0.15/0.2 is near-exact (paper: saturates ≤0.2)
      assert(tightest.forestRel < 0.05, s"$name: forest relΔ ${tightest.forestRel} at ε=0.15")
      assert(tightest.schurRel < 0.05, s"$name: schur relΔ ${tightest.schurRel} at ε=0.15")
    }
  }
}
