package cfcmbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Minimal JSON rendering for the benchmark's records (maps, sequences,
  * strings, numbers, booleans). Doubles keep every digit `toString` gives.
  */
object Json {
  def render(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int               => i.toString
    case l: Long              => l.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case o: Option[_]         => o.map(render).getOrElse("null")
    case xs: Iterable[_]      => xs.map(render).mkString("[", ",", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def write(path: java.nio.file.Path, v: Any): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, render(v).getBytes(java.nio.charset.StandardCharsets.UTF_8))
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  /** Highest percentile of {50, 90, 95, 99} with at least ten samples beyond
    * it, or None when the sample is smaller than 20.
    */
  def supportedPercentile(count: Int): Option[Int] =
    Seq(99, 95, 90, 50).find(p => count * (100 - p) >= 10 * 100)

  def seconds(t0: Long, t1: Long): Double = (t1 - t0) / 1e9

  /** Run `body` and return its value with its wall time in seconds. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, seconds(t0, System.nanoTime()))
  }
}

/** SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). The benchmark passes every
  * workload seed through it before the algorithms see it: their samplers
  * derive forest streams from `seed·γ + i` and phase seeds from `seed + iter`,
  * so raw neighbouring seeds would replay shifted copies of the same streams.
  */
object SeedMix {
  private val Gamma = 0x9e3779b97f4a7c15L

  def splitMix64(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Seed of the `i`-th selection of a run: output `i` of SplitMix64 seeded
    * with the workload seed.
    */
  def algorithmSeed(workloadSeed: Long, i: Int): Long = splitMix64(workloadSeed + (i + 1L) * Gamma)
}

/** JVM collector time and heap high-water mark. */
object JvmStats {
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == java.lang.management.MemoryType.HEAP)

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the per-pool peaks since the last reset, in MB (an upper bound
    * on the true simultaneous peak).
    */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)
}

/** In-memory span recorder: name, start, end, parent and run id, written out
  * once the run ends.
  */
final class Tracer(val runId: String) {
  final case class Span(id: Int, parent: Int, name: String, attrs: Map[String, Any],
                        startNs: Long, endNs: Long) {
    def seconds: Double = Stats.seconds(startNs, endNs)
  }

  private val t0 = System.nanoTime()
  private val done = scala.collection.mutable.ArrayBuffer.empty[Span]
  private var stack = List(-1)
  private var nextId = 0

  def span[A](name: String, attrs: (String, Any)*)(body: => A): A = {
    val id = nextId; nextId += 1
    val parent = stack.head
    stack = id :: stack
    val start = System.nanoTime()
    try body
    finally {
      done += Span(id, parent, name, attrs.toMap, start, System.nanoTime())
      stack = stack.tail
    }
  }

  /** [[span]] that also returns the span's wall time in seconds. */
  def timed[A](name: String, attrs: (String, Any)*)(body: => A): (A, Double) = {
    val start = System.nanoTime()
    val a = span(name, attrs: _*)(body)
    (a, Stats.seconds(start, System.nanoTime()))
  }

  def spans: Seq[Span] = done.sortBy(_.id).toSeq

  def named(name: String): Seq[Span] = spans.filter(_.name == name)

  def children(of: Span): Seq[Span] = spans.filter(_.parent == of.id)

  def records: Seq[Map[String, Any]] = spans.map { s =>
    Map("run" -> runId, "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_s" -> Stats.seconds(t0, s.startNs), "end_s" -> Stats.seconds(t0, s.endNs),
        "attrs" -> s.attrs)
  }
}
