package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{CsrGraph, GraphGen, GraphOps}

/** Benchmark harness shared by the `bench/` suites and `jobs/Reproduce`: each
  * experiment (Table II, Figs. 1–3, the ε sweep of Figs. 4–5) is defined here
  * once, at the paper's settings — graphs, runs, rendering and the results
  * file — and its callers add only their assertions or output.
  *
  * Offline substitution (DESIGN.md): each row mirrors a paper dataset's
  * *shape* — node count (scaled where the original exceeds laptop reach),
  * density m/n, and regime (scale-free hubs vs high-diameter road grid) —
  * because those are exactly the drivers in the paper's complexity analysis.
  */
object Harness {

  /** Table II's group size. */
  val TableIIK = 20

  /** Table II's ε values for FORESTCFCM and SCHURCFCM. */
  val TableIIEps = Seq(0.3, 0.2, 0.15)

  /** ε of the effectiveness comparisons (Figs. 1–3). */
  val FigEps = 0.2

  /** Group size of the ε sweep (Figs. 4–5). */
  val SweepK = 10

  /** One benchmark graph: a stand-in for a paper Table II row. */
  final case class GraphSpec(name: String, paperName: String, build: SparkSession => CsrGraph)

  /** Largest component of a Barabási–Albert graph. */
  private def ba(n: Int, m: Int, seed: Long): SparkSession => CsrGraph =
    s => GraphOps.largestComponent(GraphGen.barabasiAlbert(s, n, m, seed))

  private val road1k = GraphSpec("road-1k", "Euroroads (1,039n; τ=62)",
    s => CsrGraph.fromDataFrame(GraphGen.grid2d(s, 32, 32)))
  private val ba2k = GraphSpec("ba-2k", "Hamsterster (2,000n; m/n≈8)", ba(2000, 8, 2001))

  /** Synthetic suite mirroring Table II (ascending n). */
  val tableIISuite: Seq[GraphSpec] = Seq(
    road1k,
    ba2k,
    GraphSpec("ws-4k", "GR-QC (4,158n; m/n≈3)",
      s => GraphOps.largestComponent(GraphGen.wattsStrogatz(s, 4158, 3, 0.1, 4158))),
    GraphSpec("ba-4k-dense", "Facebook (4,039n; m/n≈22)", ba(4039, 22, 4039)),
    GraphSpec("ba-6k", "Routeviews (6,474n; m/n≈2)", ba(6474, 2, 6474)),
    GraphSpec("ba-9k", "HEP-Th (8,638n; m/n≈3)", ba(8638, 3, 8638)),
    GraphSpec("ba-18k", "Astro-Ph (17,903n; m/n≈11)", ba(17903, 11, 17903)),
    GraphSpec("ba-26k", "CAIDA (26,475n; m/n≈2)", ba(26475, 2, 26475)),
    GraphSpec("ba-34k", "EmailEnron (33,696n; m/n≈5)", ba(33696, 5, 33696)),
  )

  /** Wall-clock seconds of a thunk (result discarded). */
  def time[A](thunk: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = thunk
    (a, (System.nanoTime() - t0) / 1e9)
  }

  final case class TableIIRow(
      name: String, paperName: String, n: Int, m: Long, tau: Int, tStar: Int,
      exactS: Option[Double], approxS: Option[Double],
      forestS: Map[Double, Double], schurS: Map[Double, Double],
  )

  /** Table II: running times of every algorithm at [[TableIIK]] over the
    * suite. Writes `table2.md`.
    */
  def tableII(spark: SparkSession, log: String => Unit): Seq[TableIIRow] = {
    val rows = tableIISuite.map(tableIIRow(spark, _, log))
    def fmt(t: Double): String = f"$t%.2f"
    report("table2.md", markdown(
      Seq("Network (stand-in for)", "n", "m", "τ", "\\|T*\\|", "EXACT", "APPROX") ++
        TableIIEps.map(e => s"FOREST ε=$e") ++ TableIIEps.map(e => s"SCHUR ε=$e"),
      rows.map { r =>
        Seq(s"${r.name} (${r.paperName})", r.n.toString, r.m.toString, r.tau.toString, r.tStar.toString,
            r.exactS.fold("—")(fmt), r.approxS.fold("—")(fmt)) ++
          TableIIEps.map(e => fmt(r.forestS(e))) ++ TableIIEps.map(e => fmt(r.schurS(e)))
      }), log)
    rows
  }

  /** Run the Table II experiment on one graph. EXACT (dense O(n³)) runs up to
    * 2,000 nodes and APPROXGREEDY (O(ε⁻² log n) CG solves per pick) up to
    * 9,000; larger rows print "—" for them.
    */
  private def tableIIRow(spark: SparkSession, spec: GraphSpec, log: String => Unit): TableIIRow = {
    val k = TableIIK
    val (g, tBuild) = time(spec.build(spark))
    val tau = GraphOps.diameterEstimate(g)
    val tStar = SchurCfcm.selectT(g).length
    log(f"[${spec.name}] built n=${g.n} m=${g.m} tau=$tau |T*|=$tStar (${tBuild}%.1fs)")
    val exactS = if (g.n <= 2000) {
      val (_, t) = time(ExactGreedy.run(g, k)); log(f"[${spec.name}] EXACT ${t}%.2fs"); Some(t)
    } else None
    val approxS = if (g.n <= 9000) {
      val (_, t) = time(ApproxGreedy.run(spark, g, k, 0.2)); log(f"[${spec.name}] APPROX ${t}%.2fs"); Some(t)
    } else None
    val forestS = TableIIEps.map { eps =>
      val (_, t) = time(ForestCfcm.run(spark, g, k, ForestCfcm.Config(eps)))
      log(f"[${spec.name}] FORESTCFCM eps=$eps ${t}%.2fs")
      eps -> t
    }.toMap
    val schurS = TableIIEps.map { eps =>
      val (_, t) = time(SchurCfcm.run(spark, g, k, ForestCfcm.Config(eps)))
      log(f"[${spec.name}] SCHURCFCM eps=$eps ${t}%.2fs")
      eps -> t
    }.toMap
    TableIIRow(spec.name, spec.paperName, g.n, g.m, tau, tStar, exactS, approxS, forestS, schurS)
  }

  /** Effectiveness comparison (the paper's Figs. 1–3 rendered as a table):
    * `C(S_k)` per algorithm, exact-scored (dense) — small graphs only.
    */
  final case class EffRow(graph: String, k: Int, scores: Seq[(String, Double)])

  /** Fig. 1 (as table): the tiny graphs at k ≤ 3, with the exhaustive
    * OPTIMUM. Writes `effectiveness_tiny.md`.
    */
  def fig1(spark: SparkSession, log: String => Unit): Seq[EffRow] =
    effectiveness(spark, "effectiveness_tiny.md", Seq(
      "zebraLike" -> GraphGen.zebraLike(spark),
      "karate" -> GraphGen.karate(spark),
      "contUsaLike" -> GraphGen.contUsaLike(spark),
      "dolphinsLike" -> GraphGen.dolphinsLike(spark),
    ).map { case (name, edges) => name -> GraphOps.largestComponent(edges) },
      ks = Seq(1, 2, 3), withOptimum = true, log)

  /** Figs. 2–3 (as table): small graphs at k ∈ {5, 10, 20}. Writes
    * `effectiveness_small.md`.
    */
  def figs23(spark: SparkSession, log: String => Unit): Seq[EffRow] =
    effectiveness(spark, "effectiveness_small.md", Seq(
      road1k.name -> road1k.build(spark),
      "ba-1k" -> ba(1000, 4, 1001)(spark),
    ), ks = Seq(5, 10, 20), withOptimum = false, log)

  private def effectiveness(spark: SparkSession, fileName: String, graphs: Seq[(String, CsrGraph)],
                            ks: Seq[Int], withOptimum: Boolean, log: String => Unit): Seq[EffRow] = {
    val cfg = ForestCfcm.Config(FigEps, r0 = 4.0, seed = 7)
    val kMax = ks.max
    val rows = graphs.flatMap { case (name, g) =>
      val exact = ExactGreedy.run(g, kMax)
      val approx = ApproxGreedy.run(spark, g, kMax, FigEps)
      val forest = ForestCfcm.run(spark, g, kMax, cfg)
      val schur = SchurCfcm.run(spark, g, kMax, cfg)
      val deg = Heuristics.degreeTopK(g, kMax)
      val top = Heuristics.topCfcc(g, kMax)
      ks.map { k =>
        def c(picks: Seq[Int]): Double = Cfcc.exact(g, picks.take(k).toSet)
        val base = Seq(
          "EXACT" -> c(exact.picks), "APPROX" -> c(approx.picks),
          "FORESTCFCM" -> c(forest.picks), "SCHURCFCM" -> c(schur.picks),
          "DEGREE" -> c(deg), "TOP-CFCC" -> c(top),
        )
        val scores =
          if (withOptimum) ("OPTIMUM" -> (g.n / Exhaustive.optimum(g, k).trace)) +: base
          else base
        log(s"[$name] k=$k " + scores.map { case (a, v) => f"$a=$v%.4f" }.mkString(" "))
        EffRow(name, k, scores)
      }
    }
    report(fileName, markdown(
      Seq("Graph", "k") ++ rows.head.scores.map(_._1),
      rows.map(r => Seq(r.graph, r.k.toString) ++ r.scores.map { case (_, v) => f"$v%.4f" })), log)
    rows
  }

  /** One cell of the ε sweep: FORESTCFCM and SCHURCFCM at one ε. */
  final case class SweepRow(graph: String, eps: Double, forestS: Double, schurS: Double,
                            forestForests: Long, schurForests: Long,
                            forestRel: Double, schurRel: Double)

  /** The ε sweep (Figs. 4–5 as a table): running time, forests drawn and the
    * relative difference of `C(S)` vs EXACT at [[SweepK]], for
    * ε ∈ [0.15, 0.4]. Writes `epsilon_sweep.md`.
    */
  def epsSweep(spark: SparkSession, log: String => Unit): Seq[SweepRow] = {
    // JIT/Spark warm-up so the first timed cell is not inflated
    ForestCfcm.run(spark, ba(500, 3, 1)(spark), 3, ForestCfcm.Config(0.3, seed = 1))
    val rows = Seq(road1k, ba2k).flatMap { spec =>
      val g = spec.build(spark)
      val cExact = g.n / ExactGreedy.run(g, SweepK).traces.last
      def rel(picks: Seq[Int]): Double = math.abs(cExact - Cfcc.exact(g, picks.toSet)) / cExact
      Seq(0.4, 0.3, 0.2, 0.15).map { eps =>
        val cfg = ForestCfcm.Config(eps, seed = 17)
        val (f, fT) = time(ForestCfcm.run(spark, g, SweepK, cfg))
        val (s, sT) = time(SchurCfcm.run(spark, g, SweepK, cfg))
        val row = SweepRow(spec.name, eps, fT, sT, f.forests, s.forests, rel(f.picks), rel(s.picks))
        log(f"[${spec.name}] eps=$eps forest=$fT%.2fs (rel ${row.forestRel}%.4f) schur=$sT%.2fs (rel ${row.schurRel}%.4f)")
        row
      }
    }
    report("epsilon_sweep.md", markdown(
      Seq("Graph", "ε", "FOREST time (s)", "SCHUR time (s)", "FOREST relΔ vs EXACT", "SCHUR relΔ vs EXACT"),
      rows.map(r => Seq(r.graph, r.eps.toString, f"${r.forestS}%.2f", f"${r.schurS}%.2f",
                        f"${r.forestRel}%.4f", f"${r.schurRel}%.4f"))), log)
    rows
  }

  /** A markdown table: `| a | b |` rows under a `|---|---|` separator. */
  private def markdown(header: Seq[String], rows: Seq[Seq[String]]): String = {
    def line(cells: Seq[String]): String = cells.mkString("| ", " | ", " |\n")
    line(header) + header.map(_ => "---|").mkString("|", "", "\n") + rows.map(line).mkString
  }

  /** Print a rendered table and write it under bench_results/ (created on
    * demand; the `repro.results.dir` property overrides the directory).
    */
  private def report(fileName: String, table: String, log: String => Unit): Unit = {
    println(table)
    val dir = Files.createDirectories(Paths.get(sys.props.getOrElse("repro.results.dir", "bench_results")))
    log(s"written: ${Files.write(dir.resolve(fileName), table.getBytes(UTF_8))}")
  }
}
