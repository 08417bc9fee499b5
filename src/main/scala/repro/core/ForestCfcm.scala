package repro.core

import org.apache.spark.sql.SparkSession
import repro.forest.{ForestContext, ForestSampler}
import repro.graph.CsrGraph
import repro.linalg.Jl

/** FORESTCFCM (Algorithm 3) with FORESTDELTA (Algorithm 2).
  *
  * Greedy CFCM where every marginal quantity is estimated from uniformly
  * sampled rooted spanning forests (Lemma 3.3), fanned out over Spark. Each
  * sampling phase draws its full forest budget (`ForestSampler.budget`).
  */
object ForestCfcm {

  /** Sampling knobs.
    *
    * @param eps  the paper's error parameter ε — drives the JL width
    *             (`Jl.width`) and the forest budget (`ForestSampler.budget`)
    * @param r0   forest-budget constant (budget = ⌈r0·ε^{-2}·ln n⌉)
    * @param seed base RNG seed (forests, JL)
    */
  final case class Config(eps: Double, r0: Double = 2.0, seed: Long = 99)

  final case class Result(picks: Seq[Int], forests: Long)

  /** Marginal-gain estimates for one greedy iteration: `delta(u)` for
    * u ∉ S (−∞ inside S), with the denominator exposed for tests.
    */
  final case class DeltaEstimates(delta: Array[Double], den: Array[Double], forests: Long)

  /** First greedy pick (Algorithm 3, Lines 1–14): root the forests at the
    * max-degree node s and estimate `x_u = Φ̄_{u,{s}}(u) − (2/n)·Φ̄_{1,{s}}(u)`
    * (Lemma 3.5, constant term dropped; `x_s = 0`), which ranks `L†_uu` up to
    * a common constant. Returns the node with the smallest `x_u` (s when
    * none is negative, ties to the lowest id) and the forests drawn.
    */
  def firstPick(spark: SparkSession, g: CsrGraph, cfg: Config): (Int, Long) = {
    val s = g.maxDegreeNode
    val ctx = ForestContext(g, Set(s), Array(Array.fill(g.n)(1.0)), wantDiag = true)
    val sampled = ForestSampler.run(spark, ctx, ForestSampler.budget(cfg.eps, g.n, cfg.r0),
                                    cfg.seed)(_ => false)
    val acc = sampled.acc
    val x = Array.tabulate(g.n) { u =>
      if (u == s) 0.0
      else acc.diagSum(u) / acc.count - 2.0 / g.n * (acc.phiSum(u) / acc.count)
    }
    var best = s
    for (u <- 0 until g.n) if (x(u) < x(best)) best = u
    (best, sampled.forests)
  }

  /** FORESTDELTA (Algorithm 2): estimate `Δ(u,S)` for all u ∉ S by sampling
    * forests rooted at S with JL source rows.
    */
  def forestDelta(spark: SparkSession, g: CsrGraph, s: Set[Int], cfg: Config,
                  iter: Int): DeltaEstimates = {
    val w = Jl.width(cfg.eps)
    val ctx = ForestContext(g, s, Jl.materialize(cfg.seed + 7919L * iter, w, g.n), wantDiag = true)
    val sampled = ForestSampler.run(spark, ctx, ForestSampler.budget(cfg.eps, g.n, cfg.r0),
                                    cfg.seed + iter)(_ => false)
    val acc = sampled.acc
    val n = g.n
    val delta = Array.fill(n)(Double.NegativeInfinity)
    val den = new Array[Double](n)
    var u = 0
    while (u < n) {
      if (!ctx.isRoot(u)) {
        var nsq = 0.0
        var j = 0
        while (j < w) { val y = acc.phiSum(j * n + u) / acc.count; nsq += y * y; j += 1 }
        val z = acc.diagSum(u) / acc.count
        den(u) = z
        delta(u) = nsq / math.max(z, 1e-300)
      }
      u += 1
    }
    DeltaEstimates(delta, den, sampled.forests)
  }

  /** Full FORESTCFCM greedy (Algorithm 3). */
  def run(spark: SparkSession, g: CsrGraph, k: Int, cfg: Config): Result = {
    Greedy.requireK(g.n, k)
    val (first, f0) = firstPick(spark, g, cfg)
    var forests = f0
    val picks = Greedy.run(g.n, k, first) { (s, i) =>
      val est = forestDelta(spark, g, s, cfg, i)
      forests += est.forests
      est.delta
    }
    Result(picks, forests)
  }
}
