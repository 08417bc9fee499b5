package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Harness

/** spark-submit entrypoint running one of the paper's experiments at the
  * settings fixed in [[Harness]]: Table II, the effectiveness comparisons
  * (Figs. 1–3 as tables) or the ε sweep (Figs. 4–5 as a table).
  *
  * Usage: spark-submit --class repro.jobs.Reproduce repro.jar <table2|effectiveness|sweep>
  */
object Reproduce {
  def main(args: Array[String]): Unit = {
    val experiment: SparkSession => Unit = args match {
      case Array("table2") => Harness.tableII(_, println)
      case Array("effectiveness") => s => { Harness.fig1(s, println); Harness.figs23(s, println) }
      case Array("sweep") => Harness.epsSweep(_, println)
      case _ =>
        Console.err.println("usage: Reproduce <table2|effectiveness|sweep>")
        sys.exit(2)
    }
    val spark = SparkSession.builder.appName(s"repro-${args(0)}")
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer").getOrCreate()
    try experiment(spark)
    finally spark.stop()
  }
}
