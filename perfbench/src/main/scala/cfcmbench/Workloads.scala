package cfcmbench

import org.apache.spark.sql.SparkSession
import repro.core.{ApproxGreedy, Cfcc, ForestCfcm, SchurCfcm}
import repro.graph.{CsrGraph, GraphGen, GraphOps}

/** Which greedy algorithm a workload runs. */
sealed trait Algo
case object Forest extends Algo
case object Schur extends Algo
case object Approx extends Algo

/** One greedy selection's output: the picks and its work count (forests drawn
  * for the forest algorithms, CG solves for APPROXGREEDY).
  */
final case class Selection(picks: Seq[Int], work: Long)

/** A benchmark workload: one algorithm on one fixed Table II stand-in graph.
  * The graphs never depend on the workload seed, so set-up is identical
  * across seeds and commits; the seed only reaches the algorithm.
  *
  * @param exact score C(S) by dense inversion and fail a selection whose C(S)
  *              is below `ExactGateRatio` × the C(S) of EXACT greedy (small
  *              graphs); otherwise score by Hutchinson + CG with fixed probes
  */
final case class Workload(name: String, algo: Algo, graph: String, k: Int, eps: Double,
                          build: SparkSession => CsrGraph, exact: Boolean) {

  def config(seed: Long): ForestCfcm.Config = ForestCfcm.Config(eps, seed = seed)

  /** One full greedy selection through the algorithm's public entry point. */
  def select(spark: SparkSession, g: CsrGraph, seed: Long): Selection = algo match {
    case Forest =>
      val r = ForestCfcm.run(spark, g, k, config(seed)); Selection(r.picks, r.forests)
    case Schur =>
      val r = SchurCfcm.run(spark, g, k, config(seed)); Selection(r.picks, r.forests)
    case Approx =>
      val r = ApproxGreedy.run(spark, g, k, eps, seed); Selection(r.picks, r.solves)
  }

  /** Untimed full selections, at least one and repeated for at least
    * `Workloads.WarmUpS` seconds, so JIT compilation is done before anything
    * is timed. Returns the warm-up's wall seconds.
    */
  def warmUp(spark: SparkSession, g: CsrGraph, workloadSeed: Long): Double = {
    val start = System.nanoTime()
    var i = 0
    while (i == 0 || Stats.seconds(start, System.nanoTime()) < Workloads.WarmUpS) {
      select(spark, g, SeedMix.splitMix64(SeedMix.algorithmSeed(workloadSeed, i)))
      i += 1
    }
    Stats.seconds(start, System.nanoTime())
  }

  def score(g: CsrGraph, picks: Seq[Int]): Double =
    if (exact) Cfcc.exact(g, picks.toSet)
    else Cfcc.approxCg(g, picks.toSet, Workloads.ScoreProbes, Workloads.ScoreSeed)
}

object Workloads {

  /** Hutchinson probes and probe seed for C(S) scoring: benchmark constants,
    * never the workload seed, so the score of a group is a fixed function of
    * the group.
    */
  val ScoreProbes = 64
  val ScoreSeed = 42L

  /** FORESTCFCM on road-1k must reach this share of EXACT greedy's C(S) —
    * the EffectivenessBench gate for FORESTCFCM on the same graph.
    */
  val ExactGateRatio = 0.88

  /** Minimum warm-up before the first timed selection. */
  val WarmUpS = 4.0

  private def road1k(s: SparkSession): CsrGraph = CsrGraph.fromDataFrame(GraphGen.grid2d(s, 32, 32))
  private def ba2k(s: SparkSession): CsrGraph =
    GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 2000, 8, 2001))
  private def ba34k(s: SparkSession): CsrGraph =
    GraphOps.largestComponent(GraphGen.barabasiAlbert(s, 33696, 5, 33696))

  val all: Seq[Workload] = Seq(
    Workload("road-forest", Forest, "road-1k", k = 20, eps = 0.2, road1k, exact = true),
    Workload("enron-forest", Forest, "ba-34k", k = 5, eps = 0.2, ba34k, exact = false),
    Workload("enron-schur", Schur, "ba-34k", k = 5, eps = 0.2, ba34k, exact = false),
    Workload("hamster-approx", Approx, "ba-2k", k = 5, eps = 0.3, ba2k, exact = false),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
