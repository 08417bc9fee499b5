package repro.core

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen, GraphOps}

/** Integration: every algorithm of Section V runs on the same graphs and the
  * paper's ordering claims hold (SCHURCFCM ≈ FORESTCFCM ≈ EXACT, all at or
  * above the heuristics; everything close to the exhaustive optimum on tiny
  * graphs).
  */
class EndToEndSpec extends SparkSpec {

  private val cfg = ForestCfcm.Config(eps = 0.2, r0 = 8.0, seed = 21)

  test("all five algorithms produce valid, comparable solutions on karate (k=4)") {
    val g = CsrGraph.fromDataFrame(GraphGen.karate(spark))
    val k = 4
    val solutions = Map(
      "EXACT" -> ExactGreedy.run(g, k).picks.toSet,
      "APPROX" -> ApproxGreedy.run(spark, g, k, 0.2).picks.toSet,
      "FORESTCFCM" -> ForestCfcm.run(spark, g, k, cfg).picks.toSet,
      "SCHURCFCM" -> SchurCfcm.run(spark, g, k, cfg).picks.toSet,
      "DEGREE" -> Heuristics.degreeTopK(g, k).toSet,
      "TOP-CFCC" -> Heuristics.topCfcc(g, k).toSet,
    )
    val scores = solutions.map { case (name, s) =>
      assert(s.size == k, s"$name returned ${s.size} nodes")
      name -> Cfcc.exact(g, s)
    }
    val cExact = scores("EXACT")
    assert(scores("FORESTCFCM") >= 0.9 * cExact, scores.toString)
    assert(scores("SCHURCFCM") >= 0.9 * cExact, scores.toString)
    assert(scores("APPROX") >= 0.85 * cExact, scores.toString)
    // greedy family dominates pure heuristics (paper Figs. 2–3)
    assert(cExact >= scores("DEGREE") - 1e-9)
    assert(cExact >= scores("TOP-CFCC") - 1e-9)
  }

  test("greedy algorithms approach the exhaustive optimum on tiny graphs (k=3)") {
    for ((name, df) <- Seq(
      "zebraLike" -> GraphGen.zebraLike(spark),
      "contUsaLike" -> GraphGen.contUsaLike(spark),
    )) {
      val g = GraphOps.largestComponent(df)
      val cOpt = g.n / Exhaustive.optimum(g, 3).trace
      val cForest = Cfcc.exact(g, ForestCfcm.run(spark, g, 3, cfg).picks.toSet)
      val cSchur = Cfcc.exact(g, SchurCfcm.run(spark, g, 3, cfg).picks.toSet)
      assert(cForest >= 0.9 * cOpt, s"$name forest $cForest vs opt $cOpt")
      assert(cSchur >= 0.9 * cOpt, s"$name schur $cSchur vs opt $cOpt")
    }
  }

  test("medium BA graph end-to-end: SCHURCFCM quality ≥ 0.95 × FORESTCFCM (CG-scored)") {
    val g = GraphOps.largestComponent(GraphGen.barabasiAlbert(spark, 1500, 3, 99))
    val k = 5
    val forest = ForestCfcm.run(spark, g, k, ForestCfcm.Config(0.25, r0 = 2.0, seed = 4))
    val schur = SchurCfcm.run(spark, g, k, ForestCfcm.Config(0.25, r0 = 2.0, seed = 4))
    val cForest = Cfcc.approxCg(g, forest.picks.toSet, probes = 64)
    val cSchur = Cfcc.approxCg(g, schur.picks.toSet, probes = 64)
    assert(cSchur >= 0.95 * cForest, s"schur $cSchur vs forest $cForest")
  }
}
