package repro.forest

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen}
import repro.linalg.Dense

/** Spark fan-out of the forest sampler: correctness of the distributed merge
  * and the adaptive batching, not the estimator math (EstimatorSpec).
  */
class SamplerSpec extends SparkSpec {

  private lazy val karate = CsrGraph.fromDataFrame(GraphGen.karate(spark))

  test("distributed sampling merges to the requested forest count") {
    val ctx = ForestContext(karate, Set(0), Array(Array.fill(karate.n)(1.0)), wantDiag = true)
    val res = ForestSampler.run(spark, ctx, 500, seed = 5)(_ => false)
    assert(res.forests == 500 && res.acc.count == 500)
    assert(!res.converged)
  }

  test("adaptive stop halts sampling early when the predicate fires") {
    val ctx = ForestContext(karate, Set(0), Array(Array.fill(karate.n)(1.0)), wantDiag = true)
    val res = ForestSampler.run(spark, ctx, 100000, seed = 6)(acc => acc.count >= 100)
    assert(res.converged)
    assert(res.forests < 5000, s"sampled ${res.forests}") // stopped well before budget
  }

  test("distributed estimates converge to dense ground truth") {
    val g = karate
    val s = Set(33)
    val ctx = ForestContext(g, s, Array(Array.fill(g.n)(1.0)), wantDiag = true)
    val res = ForestSampler.run(spark, ctx, 20000, seed = 7)(_ => false)
    val (keep, inv) = Dense.submatrixInverse(g, s)
    for ((u, i) <- keep.zipWithIndex) {
      val est = res.acc.diagSum(u) / res.acc.count
      val ex = Dense.get(inv, keep.length, i, i)
      assert(math.abs(est - ex) < math.max(0.1 * ex, 0.12), s"diag($u) est=$est exact=$ex")
    }
  }

  test("same seed and budget give identical accumulator sums (determinism)") {
    val ctx = ForestContext(karate, Set(0, 1), Array(Array.fill(karate.n)(1.0)), wantDiag = true)
    val a = ForestSampler.run(spark, ctx, 256, seed = 9)(_ => false)
    val b = ForestSampler.run(spark, ctx, 256, seed = 9)(_ => false)
    assert(a.acc.diagSum.toSeq == b.acc.diagSum.toSeq)
    assert(a.acc.phiSum.toSeq == b.acc.phiSum.toSeq)
  }

  test("budget scales with 1/ε² and is monotone") {
    assert(ForestSampler.budget(0.3, 1000) < ForestSampler.budget(0.2, 1000))
    assert(ForestSampler.budget(0.2, 1000) < ForestSampler.budget(0.15, 1000))
    assert(ForestSampler.budget(0.2, 100) <= ForestSampler.budget(0.2, 100000))
  }

  test("accumulator merge is associative on real folds") {
    val ctx = ForestContext(karate, Set(2), Array(Array.fill(karate.n)(1.0)), wantDiag = true)
    def fold(seed: Long, k: Int): ForestAcc = {
      val acc = new ForestAcc(ctx.nsrc, ctx.n, ctx.wantDiag, ctx.numT)
      val scr = new ForestScratch(ctx)
      val rng = new java.util.SplittableRandom(seed)
      for (_ <- 0 until k) ForestStats.fold(ctx, Wilson.sample(ctx.g, ctx.isRoot, ctx.numRoots, rng), acc, scr)
      acc
    }
    val merged1 = fold(1, 50).merge(fold(2, 50)).merge(fold(3, 50))
    val merged2 = fold(1, 50).merge(fold(2, 50).merge(fold(3, 50)))
    assert(Dense.maxAbsDiff(merged1.diagSum, merged2.diagSum) < 1e-9)
    assert(merged1.count == 150 && merged2.count == 150)
  }
}
