package cfcmbench

import java.nio.file.{Path, Paths}

import org.apache.spark.sql.SparkSession
import repro.core.{Cfcc, ExactGreedy}
import repro.graph.CsrGraph

/** Benchmark entry point: one run of one workload.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`
  *
  * With `--trace 0` it sets up (SparkSession + graph) `SetupReps` times,
  * warms up with untimed selections, then repeats full greedy selections
  * until they add up to `--seconds` seconds, scoring and checking each
  * outside the timed window, and reports the end-to-end metrics. With
  * `--trace 1` it runs [[Traced]] instead. Either way it writes `result.json`
  * (metrics by name, check counts and the run record) to `--out`.
  */
object Main {

  /** Set-ups per untraced run; `setup_s` is their median. */
  val SetupReps = 3

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
         need("trace") match { case "0" => false; case "1" => true
                               case t => throw new IllegalArgumentException(s"--trace $t") },
         Paths.get(need("out")))
  }

  def session(out: Path): SparkSession = SparkSession.builder
    .master("local[*]")
    .appName("cfcm-bench")
    .config("spark.ui.enabled", "false")
    .config("spark.local.dir", out.resolve("spark-local").toString)
    .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
    .getOrCreate()

  /** Set-up times of one run: whole set-up and the graph build within it. */
  final case class Setup(spark: SparkSession, g: CsrGraph, setupS: Seq[Double], buildS: Seq[Double])

  /** Start a session and build the workload graph `reps` times, keeping the
    * last session and graph.
    */
  def setup(w: Workload, reps: Int, out: Path): Setup = {
    val runs = (1 to reps).map { rep =>
      val t0 = System.nanoTime()
      val spark = session(out)
      val t1 = System.nanoTime()
      val g = w.build(spark)
      val t2 = System.nanoTime()
      if (rep < reps) spark.stop()
      (spark, g, Stats.seconds(t0, t2), Stats.seconds(t1, t2))
    }
    Setup(runs.last._1, runs.last._2, runs.map(_._3), runs.map(_._4))
  }

  /** Picks are k distinct in-range nodes. */
  def validPicks(g: CsrGraph, k: Int, picks: Seq[Int]): Boolean =
    picks.length == k && picks.distinct.length == k && picks.forall(u => u >= 0 && u < g.n)

  def environment(spark: SparkSession, g: CsrGraph): Map[String, Any] = Map(
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "xmx" -> sys.props.getOrElse("cfcmbench.xmx", "unknown"),
    "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
    "spark" -> spark.version,
    "git_sha" -> sys.props.getOrElse("cfcmbench.git", "unknown"),
    "source_sha256" -> sys.props.getOrElse("cfcmbench.sources", "unknown"),
    "graph_n" -> g.n, "graph_m" -> g.m,
  )

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val w = Workloads.byName(opts.workload)
    val s = setup(w, if (opts.trace) 1 else SetupReps, opts.out)
    try {
      val result =
        if (opts.trace) Traced.run(s.spark, s.g, w, opts.seed, s.buildS.head, opts.out)
        else untraced(s, w, opts.seed, opts.seconds)
      Json.write(opts.out.resolve("result.json"),
                 result ++ Map("environment" -> environment(s.spark, s.g)))
    } finally s.spark.stop()
  }

  /** Repeated full selections until their summed wall time reaches
    * `seconds` (at least one).
    */
  def untraced(s: Setup, w: Workload, workloadSeed: Long, seconds: Double): Map[String, Any] = {
    val g = s.g
    // EXACT greedy reference for the quality gate, outside set-up and selection.
    val (refCfcc, refS) = Stats.timed {
      if (w.exact) Some(Cfcc.exact(g, ExactGreedy.run(g, w.k).picks.toSet)) else None
    }
    val warmUpS = w.warmUp(s.spark, g, workloadSeed)
    val samples = Seq.newBuilder[Map[String, Any]]
    val times = Seq.newBuilder[Double]; val scores = Seq.newBuilder[Double]
    var attempted = 0; var failed = 0; var measuredS = 0.0
    while (measuredS < seconds) {
      val seed = SeedMix.algorithmSeed(workloadSeed, attempted)
      System.gc()
      val (sel, dt) = Stats.timed(w.select(s.spark, g, seed))
      val valid = validPicks(g, w.k, sel.picks)
      val (cfcc, scoreS) = Stats.timed(if (valid) w.score(g, sel.picks) else Double.NaN)
      val ok = valid && refCfcc.forall(r => cfcc >= Workloads.ExactGateRatio * r)
      attempted += 1; measuredS += dt
      if (!ok) failed += 1
      times += dt
      if (valid) scores += cfcc
      samples += Map("algorithm_seed" -> seed, "select_s" -> dt, "cfcc" -> cfcc, "score_s" -> scoreS, "ok" -> ok,
                     "picks" -> sel.picks, (if (w.algo == Approx) "cg_solves" else "forests") -> sel.work)
    }
    val allTimes = times.result(); val validScores = scores.result()
    val metrics = Map[String, Double](
      "select_s" -> Stats.median(allTimes),
      "cfcc" -> (if (validScores.isEmpty) 0.0 else Stats.median(validScores)),
      "setup_s" -> Stats.median(s.setupS),
      "ok_frac" -> (attempted - failed).toDouble / attempted,
    )
    Map(
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metrics,
      "record" -> Map(
        "workload" -> w.name, "workload_seed" -> workloadSeed, "trace" -> false,
        "algorithm" -> w.algo.toString, "graph" -> w.graph, "k" -> w.k, "eps" -> w.eps,
        "failed_frac" -> failed.toDouble / attempted,
        "select_n" -> allTimes.length,
        "select_max_s" -> allTimes.max,
        "select_supported_percentile" ->
          Stats.supportedPercentile(allTimes.length).map("p" + _).getOrElse("none (fewer than 20 samples)"),
        "warm_up_s" -> warmUpS, "setup_s_all" -> s.setupS, "graph_build_s_all" -> s.buildS,
        "exact_reference_cfcc" -> refCfcc, "exact_reference_s" -> (if (w.exact) refS else Double.NaN),
        "cfcc_scoring" -> (if (w.exact) "dense exact"
                           else s"Hutchinson+CG, ${Workloads.ScoreProbes} probes, probe seed ${Workloads.ScoreSeed}"),
        "samples" -> samples.result(),
      ),
    )
  }
}
