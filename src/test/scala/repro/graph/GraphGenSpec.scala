package repro.graph

import repro.SparkSpec

class GraphGenSpec extends SparkSpec {

  private def checkSimpleUndirected(name: String, df: org.apache.spark.sql.DataFrame): Unit = {
    val rows = df.collect()
    rows.foreach { r =>
      assert(r.getInt(0) < r.getInt(1), s"$name: src < dst violated")
    }
    assert(rows.map(r => (r.getInt(0), r.getInt(1))).distinct.length == rows.length,
           s"$name: duplicate edges")
  }

  test("karate has 34 nodes and 78 edges, connected, degree sequence sane") {
    val df = GraphGen.karate(spark)
    checkSimpleUndirected("karate", df)
    val g = CsrGraph.fromDataFrame(df)
    assert(g.n == 34 && g.m == 78)
    assert(GraphOps.bfs(g, Seq(0)).forall(_ >= 0))
    assert(g.maxDegree == 17)          // node 34 (id 33) has degree 17
    assert(g.degree(0) == 16)          // node 1 (id 0) has degree 16
  }

  for ((name, n, mk) <- Seq(
    ("barabasiAlbert", 500, () => GraphGen.barabasiAlbert(spark, 500, 3, 7)),
    ("wattsStrogatz", 400, () => GraphGen.wattsStrogatz(spark, 400, 3, 0.1, 11)),
    ("grid2d", 100, () => GraphGen.grid2d(spark, 10, 10)),
    ("ring", 60, () => GraphGen.ring(spark, 60)),
  )) {
    test(s"$name: simple, undirected, connected, expected size") {
      val df = mk()
      checkSimpleUndirected(name, df)
      val g = CsrGraph.fromDataFrame(df)
      assert(g.n == n, s"n=${g.n}")
      assert(GraphOps.bfs(g, Seq(0)).forall(_ >= 0), s"$name disconnected")
    }
  }

  test("barabasiAlbert is deterministic in its seed") {
    val a = GraphGen.barabasiAlbert(spark, 300, 3, 42).collect().map(r => (r.getInt(0), r.getInt(1))).sorted
    val b = GraphGen.barabasiAlbert(spark, 300, 3, 42).collect().map(r => (r.getInt(0), r.getInt(1))).sorted
    assert(a.toSeq == b.toSeq)
  }

  test("barabasiAlbert has a heavy tail: hub degree far above the mean") {
    val g = CsrGraph.fromDataFrame(GraphGen.barabasiAlbert(spark, 2000, 3, 7))
    val mean = 2.0 * g.m / g.n
    assert(g.maxDegree > 5 * mean, s"max=${g.maxDegree} mean=$mean")
  }

  test("grid2d edge count is rows*(cols-1) + (rows-1)*cols") {
    val g = CsrGraph.fromDataFrame(GraphGen.grid2d(spark, 7, 9))
    assert(g.m == 7 * 8 + 6 * 9)
  }

  test("grid2d and ring return exactly the lattice and cycle edge sets") {
    def edges(df: org.apache.spark.sql.DataFrame): Set[(Int, Int)] =
      df.collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    val (rows, cols) = (5, 6)
    val lattice = for (r <- 0 until rows; c <- 0 until cols; (dr, dc) <- Seq((0, 1), (1, 0))
                       if r + dr < rows && c + dc < cols)
      yield (r * cols + c, (r + dr) * cols + c + dc)
    assert(edges(GraphGen.grid2d(spark, rows, cols)) == lattice.toSet)
    val cycle = (0 until 6).map(u => (u, u + 1)) :+ ((0, 6))
    assert(edges(GraphGen.ring(spark, 7)) == cycle.toSet)
  }

  test("erdosRenyi produces the requested number of edges") {
    val df = GraphGen.erdosRenyi(spark, 200, 500, 3)
    assert(df.count() == 500)
  }

  test("wattsStrogatz keeps degree concentrated near 2k") {
    val g = CsrGraph.fromDataFrame(GraphGen.wattsStrogatz(spark, 500, 3, 0.1, 11))
    assert(math.abs(2.0 * g.m / g.n - 6.0) < 0.5)
  }

  test("tiny stand-ins have the paper's node counts and are connected") {
    for ((name, df, n) <- Seq(
      ("zebraLike", GraphGen.zebraLike(spark), 23),
      ("contUsaLike", GraphGen.contUsaLike(spark), 49),
      ("dolphinsLike", GraphGen.dolphinsLike(spark), 62),
    )) {
      val g = GraphOps.largestComponent(df)
      assert(g.n == n, s"$name n=${g.n}")
      assert(GraphOps.bfs(g, Seq(0)).forall(_ >= 0), s"$name disconnected")
    }
  }

  test("ring diameter is n/2") {
    val g = CsrGraph.fromDataFrame(GraphGen.ring(spark, 40))
    assert(GraphOps.diameterExact(g) == 20)
  }
}
