package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.CsrGraph

/** Heuristic baselines of Section V-A. */
object Heuristics {

  /** DEGREE: the k nodes of largest degree, ties to the lowest id. */
  def degreeTopK(g: CsrGraph, k: Int): Seq[Int] =
    (0 until g.n).sortBy(u => (-g.degree(u), u)).take(k)

  /** TOP-CFCC: the k nodes with the largest single-node CFCC, i.e. smallest
    * `L†_uu` (Section II-D). Exact (dense) for small graphs; ranked by
    * FORESTCFCM's phase-1 scores otherwise.
    */
  def topCfcc(spark: SparkSession, g: CsrGraph, k: Int,
              denseLimit: Int = 3000, cfg: ForestCfcm.Config = ForestCfcm.Config(0.2)): Seq[Int] = {
    val score =
      if (g.n <= denseLimit) Cfcc.pseudoinverseDiag(g)
      else ForestCfcm.firstScores(spark, g, cfg)._1
    (0 until g.n).sortBy(u => (score(u), u)).take(k)
  }
}
