package repro.perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

object Digest {
  def sha256(text: String): String =
    MessageDigest.getInstance("SHA-256").digest(text.getBytes(StandardCharsets.UTF_8))
      .map(b => f"${b & 0xff}%02x").mkString

  /** Six decimals, as `repro.Oracle` canonicalizes doubles (positive zero,
    * most heat-map cells, skips the formatter).
    */
  def fmt(x: Double): String =
    if (java.lang.Double.doubleToRawLongBits(x) == 0L) "0.000000" else f"$x%.6f"
}

/** Minimal JSON writer for the result file (numbers, strings, booleans,
  * sequences and string-keyed maps).
  */
object Json {
  def apply(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => apply(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => require(!d.isNaN && !d.isInfinite, s"non-finite number $d"); d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.toSeq.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
}
