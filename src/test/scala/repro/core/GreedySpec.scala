package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.CsrGraph

/** The shared greedy loop without Spark: its argmax rule and the bounds on k. */
class GreedySpec extends AnyFunSuite {

  test("a maximum inside S is skipped and ties go to the lowest id") {
    val calls = Seq.newBuilder[(Set[Int], Int)]
    val picks = Greedy.run(5, 3, first = 2) { (s, i) =>
      calls += ((s, i))
      Array(1.0, 5.0, 9.0, 5.0, 1.0) // node 2 ∈ S holds the maximum; 1 and 3 tie
    }
    assert(picks == Seq(2, 1, 3))
    assert(calls.result() == Seq((Set(2), 1), (Set(1, 2), 2)))
  }

  test("k = 1 returns Seq(first) without estimating Δ") {
    assert(Greedy.run(4, 1, first = 3)((_, _) => fail("delta called")) == Seq(3))
  }

  test("k < 1 and k ≥ n throw from every greedy run before any sampling") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val cfg = ForestCfcm.Config(0.2)
    // No session: sampling anything would fail with a NullPointerException.
    for (k <- Seq(-1, 0, 4, 5)) {
      intercept[IllegalArgumentException](Greedy.run(g.n, k, 0)((_, _) => fail("delta called")))
      intercept[IllegalArgumentException](ForestCfcm.run(null, g, k, cfg))
      intercept[IllegalArgumentException](SchurCfcm.run(null, g, k, cfg))
      intercept[IllegalArgumentException](ApproxGreedy.run(null, g, k, 0.2))
    }
  }
}
