package repro.core

import repro.ml.Stats

/** Phi_Mou: aggregated movement features over the mouse map G, following
  * the crowd-behavior literature the paper cites (Rzeszotarski & Kittur;
  * Goyal et al.): path length, per-event-type counts, screen-position
  * statistics and speed.
  */
object MouseFeatures {

  val names: Vector[String] = Vector(
    "mou_total", "mou_moves", "mou_lefts", "mou_rights", "mou_scrolls",
    "mou_scrollRatio", "mou_totalLength", "mou_avgX", "mou_avgY",
    "mou_stdX", "mou_stdY", "mou_totalTime", "mou_avgSpeed",
  )

  /** Feature vector of one matcher's events, all zero when there are none.
    * Path length is the sum of Euclidean steps between consecutive events
    * in (ts, x, y) order; standard deviations of one event are 0.
    */
  def ofEvents(events: Seq[MouseEvent]): Array[Double] = {
    if (events.isEmpty) return new Array[Double](names.length)
    val es = events.sortBy(e => (e.ts, e.x, e.y)).toIndexedSeq
    val n = es.length.toDouble
    def count(kind: String) = es.count(_.kind == kind).toDouble
    val length = es.indices.drop(1).map { i =>
      val dx = es(i).x - es(i - 1).x
      val dy = es(i).y - es(i - 1).y
      math.sqrt(dx * dx + dy * dy)
    }.sum
    val xs = es.map(_.x)
    val ys = es.map(_.y)
    val span = es.last.ts - es.head.ts
    Array(
      n, count(MouseKinds.Move), count(MouseKinds.Left), count(MouseKinds.Right),
      count(MouseKinds.Scroll), count(MouseKinds.Scroll) / n, length,
      Stats.mean(xs), Stats.mean(ys), Stats.stddev(xs), Stats.stddev(ys),
      span, length / (span + 1.0),
    )
  }
}
