package repro.core

import repro.SparkSpec
import repro.graph.{CsrGraph, GraphGen}

class HeuristicsSpec extends SparkSpec {

  private lazy val karateDf = GraphGen.karate(spark)
  private lazy val karate = CsrGraph.fromDataFrame(karateDf)

  test("degreeTopK returns the known karate hubs") {
    val top2 = Heuristics.degreeTopK(karate, 2)
    assert(top2.toSet == Set(33, 0)) // degrees 17 and 16
  }

  test("degreeTopK agrees with CSR degrees for several k") {
    for (k <- Seq(1, 3, 7, 12)) {
      val picks = Heuristics.degreeTopK(karate, k)
      val picked = picks.toSet
      assert(picks.size == k && picked.size == k, s"k=$k: $picks")
      assert(picks == picks.sortBy(u => (-karate.degree(u), u)), s"k=$k: $picks out of order")
      // Every node left out ranks after the last pick: lower degree, or equal degree and higher id.
      val last = picks.last
      for (u <- 0 until karate.n if !picked(u)) {
        val (du, dl) = (karate.degree(u), karate.degree(last))
        assert(du < dl || (du == dl && u > last), s"k=$k: node $u (degree $du) outranks pick $last")
      }
    }
  }

  test("degreeTopK matches a ranking by endpoint count over the edge rows") {
    val ends = karateDf.collect().toSeq.flatMap(r => Seq(r.getInt(0), r.getInt(1)))
    val ranked = ends.groupBy(identity).toSeq
      .map { case (u, hits) => (u, hits.length) }
      .sortBy { case (u, d) => (-d, u) }
      .map(_._1)
    for (k <- Seq(1, 3, 5, 7, 12))
      assert(Heuristics.degreeTopK(karate, k) == ranked.take(k), s"k=$k")
  }

  test("topCfcc (exact path) ranks by L†_uu ascending") {
    val picks = Heuristics.topCfcc(karate, 4)
    val diag = Cfcc.pseudoinverseDiag(karate)
    val expected = (0 until karate.n).sortBy(u => (diag(u), u)).take(4)
    assert(picks == expected)
  }

  test("greedy beats both heuristics on C(S) (karate, k=4) — the paper's Fig. 2 claim") {
    val g = karate
    val k = 4
    val cGreedy = g.n / ExactGreedy.run(g, k).traces.last
    val cDeg = Cfcc.exact(g, Heuristics.degreeTopK(g, k).toSet)
    val cTop = Cfcc.exact(g, Heuristics.topCfcc(g, k).toSet)
    assert(cGreedy >= cDeg - 1e-9, s"greedy $cGreedy vs degree $cDeg")
    assert(cGreedy >= cTop - 1e-9, s"greedy $cGreedy vs top-cfcc $cTop")
  }
}
