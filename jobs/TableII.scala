package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Harness

/** spark-submit entrypoint reproducing Table II.
  *
  * Usage: spark-submit --class repro.jobs.TableII repro.jar [k] [eps,eps,...] [full]
  */
object TableII {
  def main(args: Array[String]): Unit = {
    val k = args.lift(0).map(_.toInt).getOrElse(20)
    val epsList = args.lift(1).map(_.split(',').map(_.toDouble).toSeq).getOrElse(Seq(0.3, 0.2, 0.15))
    val full = args.lift(2).contains("full")
    val spark = SparkSession.builder.appName("repro-table2")
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer").getOrCreate()
    try Harness.tableII(spark, k, epsList, full, println)
    finally spark.stop()
  }
}
