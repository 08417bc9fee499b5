package cfcmbench

import java.nio.file.Path

import org.apache.spark.sql.SparkSession
import repro.core.{ApproxGreedy, ForestCfcm, SchurCfcm}
import repro.core.ForestCfcm.DeltaEstimates
import repro.forest.{ForestAcc, ForestContext, ForestSampler, ForestScratch, ForestStats, Wilson}
import repro.graph.{CsrGraph, GraphOps}
import repro.linalg.{Cg, Dense, Jl}

/** The traced run: per-layer metrics for one workload.
  *
  *  1. One untraced `run()` selection, with JVM collector time and heap peak.
  *  2. The same selection (same seed) driven through the public per-phase
  *     calls — `ForestCfcm.firstPick`, `forestDelta` / `schurDelta`, an argmax
  *     over u ∉ S — inside spans, then a second untraced `run()`.
  *     APPROXGREEDY exposes only `run`, so its traced selection is one span,
  *     and its forest and core metrics come from a traced FORESTCFCM
  *     selection on the same graph, k and ε (the paper's comparison), which
  *     its `select_s` is predicted not to depend on.
  *  3. Every sampling phase rebuilt from outside with `ForestContext.apply` and
  *     `ForestSampler.run` (same seed, JL seed and forest count, a stop that
  *     never fires) for the sampler time, plus single-thread Wilson / fold /
  *     merge timings at the phase's real root set and context, and BFS, JL,
  *     CG and dense-inverse timings on the same graph.
  *
  * Cross-checks, each counted as attempted and, when it fails, as failed:
  * the traced picks and forest count equal the untraced `run()`'s, and every
  * rebuilt phase's estimator denominators equal that phase's
  * `DeltaEstimates.den` exactly (`diagSum/count` for FORESTDELTA, plus the
  * Schur correction for SCHURDELTA).
  *
  * The rebuild mirrors the phase seeds and budgets of `ForestCfcm` and
  * `SchurCfcm`; a program change to them must be mirrored here.
  */
object Traced {

  /** Single-thread forest timings per phase: at least `MicroMinForests`, at
    * most `MicroMaxForests`, stopping once `MicroBudgetS` seconds are spent.
    */
  val MicroMinForests = 4
  val MicroMaxForests = 64
  val MicroBudgetS = 0.15
  /** CG solves timed per greedy step. */
  val CgSolvesPerStep = 2
  /** Repetitions of the sub-millisecond timings (BFS, merge, dense inverse). */
  val Reps = 3

  /** One sampling phase of a traced selection. `iter = 0` is the first pick
    * (roots {max-degree node}, all-ones source row); `s` is the pick set S.
    */
  final case class Phase(iter: Int, s: Set[Int], est: Option[DeltaEstimates], forests: Long, callS: Double)

  private final class Checks {
    val results = Seq.newBuilder[Map[String, Any]]
    var attempted = 0; var failed = 0
    def apply(name: String, ok: Boolean, detail: String = ""): Unit = {
      attempted += 1
      if (!ok) failed += 1
      results += Map("check" -> name, "ok" -> ok, "detail" -> detail)
    }
  }

  def run(spark: SparkSession, g: CsrGraph, w: Workload, workloadSeed: Long, buildS: Double,
          out: Path): Map[String, Any] = {
    val seed = SeedMix.algorithmSeed(workloadSeed, 0)
    val cfg = w.config(seed)
    val checks = new Checks
    val parallelism = spark.sparkContext.defaultParallelism

    // 1. untraced selection, after the same warm-up as the untraced runs
    w.warmUp(spark, g, workloadSeed)
    System.gc(); JvmStats.resetHeapPeak()
    val gc0 = JvmStats.gcSeconds
    val (ref, untracedS) = Stats.timed(w.select(spark, g, seed))
    val gcS = JvmStats.gcSeconds - gc0
    val heapPeakMb = JvmStats.heapPeakMb
    checks("picks are k distinct in-range nodes", Main.validPicks(g, w.k, ref.picks))

    // 2. traced selection
    val tr = new Tracer(s"${w.name}-seed$workloadSeed")
    System.gc()
    // T as SchurCfcm.run selects it (deterministic in the graph), for the rebuild.
    val (tSel, selectTS) = Stats.timed(SchurCfcm.selectT(g))
    val tAll = if (w.algo == Schur) tSel else Array.empty[Int]
    val (picks, phasesB) = tr.span("select") {
      w.algo match {
        case Approx => (tr.span("approx.run")(ApproxGreedy.run(spark, g, w.k, w.eps, seed)).picks, Nil)
        case Schur =>
          tr.span("core.select_t")(SchurCfcm.selectT(g))
          greedy(tr, spark, g, w.k, cfg, (s, i) => SchurCfcm.schurDelta(spark, g, s, tAll, cfg, i))
        case Forest =>
          greedy(tr, spark, g, w.k, cfg, (s, i) => ForestCfcm.forestDelta(spark, g, s, cfg, i))
      }
    }
    val selectSpan = tr.named("select").head
    // A second untraced selection after the traced one. Even after the
    // warm-up each selection still ran a little faster than the one before
    // (up to 1.2x on road-1k), so trace.overhead divides by the mean of the
    // untraced selections either side of the traced one.
    System.gc()
    val (ref2, untraced2S) = Stats.timed(w.select(spark, g, seed))
    checks("traced picks equal run() picks", picks == ref.picks, s"traced $picks, run() ${ref.picks}")
    checks("run() picks repeat for the same seed", ref2.picks == ref.picks, s"${ref2.picks} vs ${ref.picks}")
    if (w.algo != Approx)
      checks("traced forests equal run() forests", phasesB.map(_.forests).sum == ref.work,
             s"traced ${phasesB.map(_.forests).sum}, run() ${ref.work}")
    val phases =
      if (w.algo != Approx) phasesB
      else tr.span("forest_comparison") {
        greedy(tr, spark, g, w.k, cfg, (s, i) => ForestCfcm.forestDelta(spark, g, s, cfg, i))._2
      }

    // 3. layers, phase by phase: the rebuilt phases run back to back, as in
    // the real selection, before the single-thread timings.
    val phaseRecs = tr.span("layers") {
      val rebuilt = phases.map(p => rebuild(tr, spark, g, w, cfg, tAll, p, checks))
      phases.zip(rebuilt).map { case (p, rb) => tr.span("micro", "iter" -> p.iter)(layerTimings(spark, g, p, rb)) }
    }
    val cg = tr.span("linalg.cg")(cgSolves(g, ref.picks, seed))
    val schurInvMs = tr.span("linalg.dense")(denseInverseMs(g, tSel))

    def col(key: String, ps: Seq[Map[String, Any]] = phaseRecs): Seq[Double] =
      ps.map(_(key).asInstanceOf[Double])
    val deltaRecs = phaseRecs.filter(_("iter").asInstanceOf[Int] > 0)
    val sum = (key: String) => col(key).sum
    val forestsMicro = sum("micro_forests")
    val metrics = Map[String, Double](
      "graph.build_s" -> buildS,
      "graph.bfs_tree_ms" -> Stats.median(col("bfs_tree_ms")),
      "jl.rows_ms" -> Stats.median(col("jl_rows_ms", deltaRecs)),
      "cg.solve_ms" -> Stats.median(cg.map(_._1)),
      "cg.iters" -> Stats.median(cg.map(_._2.toDouble)),
      "approx.solves" -> (if (w.algo == Approx) ref.work.toDouble else 0.0),
      "dense.schur_inv_ms" -> schurInvMs,
      "wilson.ms_per_forest" -> 1e3 * sum("wilson_s") / forestsMicro,
      "fold.ms_per_forest" -> 1e3 * sum("fold_s") / forestsMicro,
      "fold_nodiag.ms_per_forest" -> 1e3 * sum("fold_nodiag_s") / forestsMicro,
      "merge.ms" -> Stats.median(col("merge_ms")),
      "acc.mb_per_phase" -> Stats.median(col("acc_mb_computed")),
      "sampler.phase_s" -> Stats.median(col("sampler_s")),
      "sampler.phase_s.p95" -> Stats.quantile(col("sampler_s"), 0.95),
      "sampler.forests" -> phases.map(_.forests).sum.toDouble,
      "sampler.converged_ratio" -> col("converged").count(_ > 0) / phases.length.toDouble,
      "sampler.overhead_s" -> Stats.median(col("overhead_s")),
      "sampler.parallel_eff" -> Stats.median(col("parallel_eff")),
      "core.first_pick_s" -> phases.head.callS,
      "core.delta_s" -> Stats.median(col("call_s", deltaRecs)),
      "core.delta_s.p95" -> Stats.quantile(col("call_s", deltaRecs), 0.95),
      "core.assembly_s" -> Stats.median(deltaRecs.map(r => r("call_s").asInstanceOf[Double] -
                                                             r("sampler_s").asInstanceOf[Double])),
      "core.select_t_ms" -> 1e3 * selectTS,
      "jvm.gc_s" -> gcS,
      "jvm.heap_peak_mb" -> heapPeakMb,
      "trace.coverage" -> tr.children(selectSpan).map(_.seconds).sum / selectSpan.seconds,
      "trace.overhead" -> selectSpan.seconds / ((untracedS + untraced2S) / 2),
    )
    val spansFile = out.resolve("spans.jsonl")
    java.nio.file.Files.write(spansFile,
      tr.records.map(Json.render).mkString("", "\n", "\n").getBytes(java.nio.charset.StandardCharsets.UTF_8))
    Map(
      "correct" -> (checks.failed == 0), "attempted" -> checks.attempted, "failed" -> checks.failed,
      "metrics" -> metrics,
      "record" -> Map(
        "workload" -> w.name, "workload_seed" -> workloadSeed, "algorithm_seed" -> seed, "trace" -> true,
        "algorithm" -> w.algo.toString, "graph" -> w.graph, "k" -> w.k, "eps" -> w.eps,
        "parallelism" -> parallelism,
        "untraced_select_s" -> Seq(untracedS, untraced2S), "traced_select_s" -> selectSpan.seconds,
        "picks" -> ref.picks, (if (w.algo == Approx) "cg_solves" else "forests") -> ref.work,
        "phase_source" -> (if (w.algo == Approx) "traced FORESTCFCM on the same graph, k and eps"
                           else "the traced selection"),
        "acc_mb_note" -> "computed from accumulator array sizes x partition partials, not measured",
        "jvm_heap_peak_note" -> "sum of per-pool heap peaks over the untraced selection",
        "cg_solves_timed" -> cg.length,
        "checks" -> checks.results.result(),
        "phases" -> phaseRecs,
        "spans_file" -> spansFile.getFileName.toString,
      ),
    )
  }

  /** A greedy selection driven through the public per-phase calls, one span
    * per call.
    */
  private def greedy(tr: Tracer, spark: SparkSession, g: CsrGraph, k: Int, cfg: ForestCfcm.Config,
                     delta: (Set[Int], Int) => DeltaEstimates): (Seq[Int], Seq[Phase]) = {
    val ((first, f0), firstS) = tr.timed("core.first_pick")(ForestCfcm.firstPick(spark, g, cfg))
    val phases = Seq.newBuilder[Phase]
    phases += Phase(0, Set(g.maxDegreeNode), None, f0, firstS)
    val picked = scala.collection.mutable.LinkedHashSet(first)
    for (i <- 1 until k) {
      val s = picked.toSet
      val (est, dt) = tr.timed("core.delta", "iter" -> i)(delta(s, i))
      phases += Phase(i, s, Some(est), est.forests, dt)
      picked += tr.span("core.argmax", "iter" -> i) {
        var best = -1; var bestD = Double.NegativeInfinity
        for (u <- 0 until g.n) if (!picked.contains(u) && est.delta(u) > bestD) { bestD = est.delta(u); best = u }
        best
      }
    }
    (picked.toSeq, phases.result())
  }

  /** A rebuilt phase: its context, budget, sampler seed, and the wall times
    * of its JL rows and its `ForestSampler.run`.
    */
  private final case class Rebuilt(ctx: ForestContext, budget: Long, samplerSeed: Long,
                                   jlS: Double, samplerS: Double)

  /** Rebuild one phase from outside and check it against the real one. */
  private def rebuild(tr: Tracer, spark: SparkSession, g: CsrGraph, w: Workload,
                      cfg: ForestCfcm.Config, tAll: Array[Int], p: Phase, checks: Checks): Rebuilt = {
    val n = g.n
    val schur = w.algo == Schur && p.iter > 0
    val tList = if (schur) tAll.filterNot(p.s.contains) else Array.empty[Int]
    val roots = p.s ++ tList
    val fullBudget = ForestSampler.budget(cfg.eps, n, cfg.r0)
    // Phase seeds, JL seeds and budgets as in ForestCfcm.firstPick /
    // forestDelta and SchurCfcm.schurDelta.
    val (jlSeed, samplerSeed, budget) =
      if (p.iter == 0) (0L, cfg.seed, fullBudget)
      else if (schur) {
        val ratio = math.min(1.0, math.max(0.3, (SchurCfcm.residualMaxDegree(g, roots) + 1.0) /
                                                (SchurCfcm.residualMaxDegree(g, p.s) + 1.0)))
        (cfg.seed + 104729L * p.iter, cfg.seed + 31 * p.iter, math.max(64L, (fullBudget * ratio).toLong))
      } else (cfg.seed + 7919L * p.iter, cfg.seed + p.iter, fullBudget)
    val nsrc = if (p.iter == 0) 1 else Jl.width(cfg.eps)
    val (sources, jlS) = Stats.timed {
      if (p.iter == 0) Array(Array.fill(n)(1.0))
      else Array.tabulate(nsrc)(j => Array.tabulate(n)(v => Jl.entry(jlSeed, j, v, nsrc)))
    }
    val ctx = ForestContext(g, roots, sources, wantDiag = true, tList)

    // Rebuilt phase: same forests (indices 0 until p.forests, same seed), no early stop.
    val (sampled, samplerS) = tr.timed("sampler.run", "iter" -> p.iter) {
      ForestSampler.run(spark, ctx, p.forests, samplerSeed)(_ => false)
    }
    checks(s"phase ${p.iter}: forests within budget", p.forests <= budget, s"${p.forests} > $budget")
    p.est.foreach { est =>
      val den = if (schur) schurDen(g, ctx, tList, sampled.acc) else forestDen(ctx, sampled.acc)
      val mismatches = (0 until n).count(u => den(u) != est.den(u))
      checks(s"phase ${p.iter}: rebuilt den equals DeltaEstimates.den", mismatches == 0,
             s"$mismatches of $n differ")
    }
    Rebuilt(ctx, budget, samplerSeed, jlS, samplerS)
  }

  /** Single-thread BFS, Wilson, fold and merge timings at a phase's real root
    * set and context, and the phase's record.
    */
  private def layerTimings(spark: SparkSession, g: CsrGraph, p: Phase, rb: Rebuilt): Map[String, Any] = {
    val n = g.n
    val ctx = rb.ctx
    val roots = (0 until n).filter(ctx.isRoot)
    val bfsMs = 1e3 * Stats.median(Seq.fill(Reps)(Stats.timed(GraphOps.bfsTree(g, roots))._2))
    val noDiag = new ForestContext(ctx.g, ctx.isRoot, ctx.numRoots, ctx.bfsParent, ctx.bfsOrder,
                                   ctx.sources, false, ctx.tIndex, ctx.numT)
    val acc = new ForestAcc(ctx.nsrc, n, true, ctx.numT); val scr = new ForestScratch(ctx)
    val accNd = new ForestAcc(ctx.nsrc, n, false, ctx.numT); val scrNd = new ForestScratch(noDiag)
    val rng = new java.util.SplittableRandom(SeedMix.splitMix64(rb.samplerSeed ^ p.iter))
    var count = 0; var wilsonS = 0.0; var foldS = 0.0; var foldNdS = 0.0
    while (count < MicroMaxForests && (count < MicroMinForests || wilsonS + foldS + foldNdS < MicroBudgetS)) {
      val (f, ws) = Stats.timed(Wilson.sample(g, ctx.isRoot, ctx.numRoots, rng))
      foldS += Stats.timed(ForestStats.fold(ctx, f, acc, scr))._2
      foldNdS += Stats.timed(ForestStats.fold(noDiag, f, accNd, scrNd))._2
      wilsonS += ws; count += 1
    }
    val mergeMs = 1e3 * Stats.median(Seq.fill(Reps) {
      val other = new ForestAcc(ctx.nsrc, n, true, ctx.numT)
      Stats.timed(acc.merge(other))._2
    })
    val perForestS = (wilsonS + foldS) / count
    val serialS = p.forests * perForestS
    val parallelism = spark.sparkContext.defaultParallelism
    Map(
      "iter" -> p.iter, "roots" -> roots.size, "forests" -> p.forests, "budget" -> rb.budget,
      "converged" -> (if (p.forests < rb.budget) 1.0 else 0.0),
      "call_s" -> p.callS, "sampler_s" -> rb.samplerS,
      "jl_rows_ms" -> 1e3 * rb.jlS, "bfs_tree_ms" -> bfsMs, "merge_ms" -> mergeMs,
      "micro_forests" -> count.toDouble, "wilson_s" -> wilsonS, "fold_s" -> foldS, "fold_nodiag_s" -> foldNdS,
      "overhead_s" -> (rb.samplerS - serialS / parallelism),
      "parallel_eff" -> serialS / (rb.samplerS * parallelism),
      "acc_mb_computed" -> accBytes(ctx) * partials(p.forests, parallelism) / 1e6,
    )
  }

  /** FORESTDELTA's denominators `diagSum(u)/count` (0 at the roots). */
  private def forestDen(ctx: ForestContext, acc: ForestAcc): Array[Double] =
    Array.tabulate(ctx.n)(u => if (ctx.isRoot(u)) 0.0 else acc.diagSum(u) / acc.count)

  /** SCHURDELTA's denominators from an accumulator: `diagSum(u)/count` plus
    * the Schur correction `F̃_uᵀ S̃^{-1} F̃_u` for u ∈ U, and `S̃^{-1}_tt` for
    * t ∈ T (Eqs. 11 and 15), in `SchurCfcm.schurDelta`'s operation order so
    * that equal sums give bit-equal results.
    */
  private def schurDen(g: CsrGraph, ctx: ForestContext, tList: Array[Int], acc: ForestAcc): Array[Double] = {
    val n = g.n; val nt = tList.length; val cnt = acc.count.toDouble
    val f: Array[Array[(Int, Double)]] = Array.tabulate(n) { u =>
      if (ctx.isRoot(u)) Array.empty
      else (0 until nt).collect { case t if acc.rootCnt(u * nt + t) > 0 => (t, acc.rootCnt(u * nt + t) / cnt) }.toArray
    }
    val schur = new Array[Double](nt * nt)
    for (i <- 0 until nt) {
      val ti = tList(i)
      schur(i * nt + i) = g.degree(ti).toDouble
      for (e <- g.off(ti) until g.off(ti + 1)) {
        val nb = g.adj(e)
        if (ctx.tIndex(nb) >= 0) schur(i * nt + ctx.tIndex(nb)) -= 1.0
        else if (!ctx.isRoot(nb)) f(nb).foreach { case (t, v) => schur(i * nt + t) -= v }
      }
    }
    val inv = Dense.inverse(schur, nt)
    val den = new Array[Double](n)
    for (u <- 0 until n if !ctx.isRoot(u)) {
      var corr = 0.0
      for ((t1, v1) <- f(u); (t2, v2) <- f(u)) corr += v1 * inv(t1 * nt + t2) * v2
      den(u) = acc.diagSum(u) / cnt + corr
    }
    for (i <- 0 until nt) den(tList(i)) = inv(i * nt + i)
    den
  }

  /** Bytes of one accumulator's arrays. */
  private def accBytes(ctx: ForestContext): Double =
    8.0 * ctx.nsrc * ctx.n + (if (ctx.wantDiag) 16.0 * ctx.n else 0.0) + 4.0 * ctx.n * ctx.numT

  /** Partition partials a phase of `forests` forests ships back: the
    * sampler's doubling batch schedule, one partial per partition per batch.
    */
  private def partials(forests: Long, parallelism: Int): Long = {
    var batch = math.min(4096L, math.max(64L, forests / 2))
    var done = 0L; var parts = 0L
    while (done < forests) {
      val b = math.min(batch, forests - done)
      parts += math.min(parallelism.toLong, b); done += b; batch *= 2
    }
    parts
  }

  /** Time single-thread CG solves the way APPROXGREEDY builds them (JL rows of
    * the incidence matrix, grounded at S) at S = each prefix of the picks.
    * Returns (ms, iterations) per solve.
    */
  private def cgSolves(g: CsrGraph, picks: Seq[Int], seed: Long): Seq[(Double, Int)] = {
    val edges = g.edgeList
    for (i <- 1 until picks.length; j <- 0 until CgSolvesPerStep) yield {
      val s = picks.take(i).toSet
      val rhs = new Array[Double](g.n)
      for (e <- edges.indices) {
        val (a, b) = edges(e)
        val q = Jl.entry(seed + 1000 * i, j, e, CgSolvesPerStep)
        if (!s.contains(a)) rhs(a) += q
        if (!s.contains(b)) rhs(b) -= q
      }
      val ((_, iters), dt) = Stats.timed(Cg.solve(g, s, rhs, 1e-6))
      (1e3 * dt, iters)
    }
  }

  /** `Dense.inverse` at |T|×|T| on the Laplacian block of T (diagonally
    * dominant like the Schur complement it stands for), median of `Reps`.
    */
  private def denseInverseMs(g: CsrGraph, t: Array[Int]): Double = {
    val nt = t.length
    val idx = t.zipWithIndex.toMap
    val m = new Array[Double](nt * nt)
    for (i <- 0 until nt) {
      m(i * nt + i) = g.degree(t(i)).toDouble
      for (e <- g.off(t(i)) until g.off(t(i) + 1); j <- idx.get(g.adj(e))) m(i * nt + j) -= 1.0
    }
    1e3 * Stats.median(Seq.fill(Reps)(Stats.timed(Dense.inverse(m, nt))._2))
  }
}
