package perfbench

/** Just enough JSON to write the benchmark's output lines. */
object Json {
  def apply(v: Any): String = v match {
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] =>
      m.toSeq.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
