package repro.bench

import repro.SparkSpec

/** Reproduces **Table II**: running time of EXACT, APPROXGREEDY,
  * FORESTCFCM and SCHURCFCM (ε ∈ {0.3, 0.2, 0.15}, k = 20) across the
  * graph suite. Results land in `bench_results/table2.md`; EXPERIMENTS.md
  * records paper vs measured.
  */
class TableIIBench extends SparkSpec {

  private val k = Harness.TableIIK
  private val epsList = Harness.TableIIEps

  test(s"Table II: greedy CFCM running times (k=$k, eps=${epsList.mkString("/")})") {
    val rows = Harness.tableII(spark, s => { info(s); Console.err.println(s) })

    val midEps = epsList.sorted.apply(epsList.length / 2) // 0.2
    // Shape assertions mirroring the paper's claims. Absolute factors differ
    // (C++/72 threads vs JVM/16 cores; a constant Spark scheduling floor of a
    // few seconds dominates the tiniest graphs), so the claims are asserted
    // where the paper locates them: density and aggregates.
    // 1. Aggregate: APPROXGREEDY is slower than both sampling algorithms.
    val approxRows = rows.filter(_.approxS.isDefined)
    val aSum = approxRows.flatMap(_.approxS).sum
    val fSumA = approxRows.map(_.forestS(midEps)).sum
    val sSumA = approxRows.map(_.schurS(midEps)).sum
    assert(aSum > fSumA, s"APPROX total ${aSum}s !> FORESTCFCM total ${fSumA}s")
    assert(aSum > sSumA, s"APPROX total ${aSum}s !> SCHURCFCM total ${sSumA}s")
    // 2. On dense graphs (m/n ≥ 8) the sampling algorithms win per-row — the
    //    paper: "the speed-up ... is more pronounced on denser graphs".
    for (r <- approxRows if r.m >= 8L * r.n; a <- r.approxS) {
      assert(r.forestS(midEps) < a, s"${r.name}: FORESTCFCM ${r.forestS(midEps)}s !< APPROX ${a}s")
      assert(r.schurS(midEps) < a, s"${r.name}: SCHURCFCM ${r.schurS(midEps)}s !< APPROX ${a}s")
    }
    // 3. Density hurts APPROX, not the sampling algorithms: the APPROX/FOREST
    //    ratio on the densest approx-row exceeds that on the sparsest.
    if (approxRows.size >= 2) {
      val dense = approxRows.maxBy(r => r.m.toDouble / r.n)
      val sparse = approxRows.minBy(r => r.m.toDouble / r.n)
      val rDense = dense.approxS.get / dense.forestS(midEps)
      val rSparse = sparse.approxS.get / sparse.forestS(midEps)
      assert(rDense > rSparse,
             s"density effect missing: dense ${dense.name} ratio $rDense vs sparse ${sparse.name} $rSparse")
    }
    // 4. EXACT is the slowest method on non-trivial graphs where it runs.
    for (r <- rows if r.n >= 2000; e <- r.exactS)
      assert(r.schurS(midEps) < e, s"${r.name}: SCHUR ${r.schurS(midEps)}s !< EXACT ${e}s")
    // 5. Time grows as ε shrinks (ε^{-2} sampling budget), on aggregate.
    val forestLoose = rows.map(_.forestS(epsList.max)).sum
    val forestTight = rows.map(_.forestS(epsList.min)).sum
    assert(forestTight > 0.8 * forestLoose,
           s"forest times not increasing with 1/ε: $forestLoose -> $forestTight")
    val schurLoose = rows.map(_.schurS(epsList.max)).sum
    val schurTight = rows.map(_.schurS(epsList.min)).sum
    assert(schurTight > 0.8 * schurLoose,
           s"schur times not increasing with 1/ε: $schurLoose -> $schurTight")
    // 6. SCHURCFCM stays competitive with FORESTCFCM overall (the paper has
    //    it strictly faster everywhere; our per-iteration Schur assembly has
    //    a constant overhead that only amortizes at scale).
    val fSum = rows.map(r => epsList.map(r.forestS).sum).sum
    val sSum = rows.map(r => epsList.map(r.schurS).sum).sum
    assert(sSum < 1.4 * fSum, s"SCHURCFCM total ${sSum}s vs FORESTCFCM ${fSum}s")
  }
}
