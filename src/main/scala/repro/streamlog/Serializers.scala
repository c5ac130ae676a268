package repro.streamlog

import com.fasterxml.jackson.core.io.{NumberInput, NumberOutput}
import scala.collection.mutable

/** The alarm record as it travels the wire (simplified Sitasys format of
  * Figure 4). Under 1 KB serialized — the regime where the paper found the
  * serializer to be the end-to-end bottleneck (Fig. 11). */
final case class AlarmEvent(
    id: Long,
    deviceAddr: String,
    zip: String,
    tsEpoch: Long,
    dayOfWeek: Int,
    hourOfDay: Int,
    alarmType: String,
    propertyType: String,
    sensorType: String,
    swVersion: String,
    durationSec: Double)

/** A pluggable wire codec for [[AlarmEvent]]s. Both implementations emit the
  * same JSON, so they are interchangeable on the wire — only their cost
  * profile differs, which is the point of the Fig. 11 experiment. */
trait AlarmSerializer extends Serializable {
  def name: String
  def write(a: AlarmEvent): String
  def read(s: String): AlarmEvent
}

object Serializers {

  // JSON's two-character escapes: `\` + ShortCodes(k) stands for ShortChars(k).
  private val ShortChars = "\"\\\b\f\n\r\t"
  private val ShortCodes = "\"\\bfnrt"
  private val Hex = "0123456789abcdef"

  /** Appends `s` as a JSON string literal (RFC 8259 §7): `"`, `\` and every
    * control character below U+0020 are escaped. Runs of plain characters are
    * copied in bulk. Returns `sb`. */
  private def esc(sb: java.lang.StringBuilder, s: String): java.lang.StringBuilder = {
    sb.append('"')
    var run = 0
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (c < 0x20 || c == '"' || c == '\\') {
        sb.append(s, run, i)
        val k = ShortChars.indexOf(c)
        if (k >= 0) sb.append('\\').append(ShortCodes(k))
        else sb.append("\\u00").append(Hex(c >> 4)).append(Hex(c & 0xf))
        run = i + 1
      }
      i += 1
    }
    sb.append(s, run, s.length).append('"')
  }

  /** `d` as JSON number text, shared by both writers: the shortest decimal
    * that parses back to the same bits (Schubfach, from jackson-core), laid
    * out like `Double.toString`. NaN and ±Infinity have no JSON form and
    * raise `IllegalArgumentException`. */
  def number(d: Double): String = {
    require(!NumberOutput.notFinite(d), s"a JSON number must be finite, got $d")
    NumberOutput.toString(d, true)
  }

  /** Decodes the body of a JSON string into `sb`, in one pass: `s(start)` is
    * the first character after the opening quote, and the characters before
    * `from` are already known to hold no quote or backslash. Returns the
    * index just past the closing quote. An unterminated string raises
    * `IllegalArgumentException`. */
  private def unquote(s: String, start: Int, from: Int, sb: java.lang.StringBuilder): Int = {
    def unterminated(): Nothing = throw new IllegalArgumentException(s"unterminated string: $s")
    var run = start
    var i = from
    while (i < s.length && s.charAt(i) != '"') {
      if (s.charAt(i) != '\\') i += 1
      else {
        sb.append(s, run, i)
        val e = if (i + 1 < s.length) s.charAt(i + 1) else unterminated()
        if (e == 'u') {
          if (i + 6 > s.length) unterminated()
          sb.append(Integer.parseInt(s, i + 2, i + 6, 16).toChar); i += 6
        }
        else { val k = ShortCodes.indexOf(e); sb.append(if (k >= 0) ShortChars(k) else e); i += 2 }
        run = i
      }
    }
    if (i >= s.length) unterminated()
    sb.append(s, run, i)
    i + 1
  }

  /** Gson-analog: hand-specialized writer/reader, minimal allocation — fast
    * on small objects. */
  object FastJsonSerializer extends AlarmSerializer {
    val name = "gson-like (hand-rolled)"

    def write(a: AlarmEvent): String = {
      val sb = new java.lang.StringBuilder(256)
      sb.append("{\"id\":").append(a.id)
      sb.append(",\"deviceAddr\":"); esc(sb, a.deviceAddr)
      sb.append(",\"zip\":"); esc(sb, a.zip)
      sb.append(",\"tsEpoch\":").append(a.tsEpoch)
      sb.append(",\"dayOfWeek\":").append(a.dayOfWeek)
      sb.append(",\"hourOfDay\":").append(a.hourOfDay)
      sb.append(",\"alarmType\":"); esc(sb, a.alarmType)
      sb.append(",\"propertyType\":"); esc(sb, a.propertyType)
      sb.append(",\"sensorType\":"); esc(sb, a.sensorType)
      sb.append(",\"swVersion\":"); esc(sb, a.swVersion)
      sb.append(",\"durationSec\":").append(number(a.durationSec))
      sb.append('}')
      sb.toString
    }

    def read(s: String): AlarmEvent = {
      // Specialized scanner over the fixed field order written above. Any
      // other layout (whitespace, reordered keys, truncation) is rejected
      // with IllegalArgumentException rather than decoded into a wrong alarm.
      var i = 0
      def bad(what: String): Nothing =
        throw new IllegalArgumentException(s"not a $name record, $what at $i: $s")
      def expect(lit: String): Unit =
        if (s.startsWith(lit, i)) i += lit.length else bad(s"expected $lit")
      def readLong(): Long = {
        val neg = i < s.length && s.charAt(i) == '-'
        if (neg) i += 1
        val st = i
        var v = 0L
        while (i < s.length && s.charAt(i) >= '0' && s.charAt(i) <= '9') {
          v = v * 10 + (s.charAt(i) - '0'); i += 1
        }
        if (i == st) bad("expected a digit")
        if (neg) -v else v
      }
      def readDouble(): Double = {
        val st = i
        while (i < s.length && { val c = s.charAt(i); c >= '0' && c <= '9' || c == '.' || c == '-' || c == 'E' })
          i += 1
        if (i == st) bad("expected a number")
        NumberInput.parseDouble(s.substring(st, i), true)
      }
      def readString(): String = {
        if (i >= s.length || s.charAt(i) != '"') bad("expected a string")
        // Fast path: no escape before the closing quote. Otherwise decoding
        // resumes at the first backslash, keeping the plain run before it.
        var j = i + 1
        while (j < s.length && s.charAt(j) != '"' && s.charAt(j) != '\\') j += 1
        if (j < s.length && s.charAt(j) == '"') {
          val v = s.substring(i + 1, j); i = j + 1; v
        } else {
          val sb = new java.lang.StringBuilder(j - i + 16)
          i = unquote(s, i + 1, j, sb)
          sb.toString
        }
      }
      expect("{\"id\":");            val id  = readLong()
      expect(",\"deviceAddr\":");    val da  = readString()
      expect(",\"zip\":");           val zp  = readString()
      expect(",\"tsEpoch\":");       val ts  = readLong()
      expect(",\"dayOfWeek\":");     val dw  = readLong().toInt
      expect(",\"hourOfDay\":");     val hd  = readLong().toInt
      expect(",\"alarmType\":");     val at  = readString()
      expect(",\"propertyType\":");  val pt  = readString()
      expect(",\"sensorType\":");    val st2 = readString()
      expect(",\"swVersion\":");     val sw  = readString()
      expect(",\"durationSec\":");   val du  = readDouble()
      expect("}")
      if (i != s.length) bad("trailing characters")
      AlarmEvent(id, da, zp, ts, dw, hd, at, pt, st2, sw, du)
    }
  }

  /** Jackson-analog: fully generic databind-style codec. Writing walks the
    * case class through runtime reflection; reading tokenizes into a generic
    * `Map[String, Any]` and then rebuilds the case class by reflective
    * constructor-parameter matching. Correct, flexible — and expensive per
    * small object, exactly like Jackson in the paper's measurement. */
  object ReflectiveJsonSerializer extends AlarmSerializer {
    val name = "jackson-like (reflective)"

    def write(a: AlarmEvent): String = {
      val names  = a.productElementNames.toVector
      val values = a.productIterator.toVector
      val sb = new java.lang.StringBuilder(256)
      sb.append('{')
      var k = 0
      while (k < names.size) {
        if (k > 0) sb.append(',')
        esc(sb, names(k)); sb.append(':')
        values(k) match {
          case s: String => esc(sb, s)
          case d: Double => sb.append(number(d))
          case other     => sb.append(other.toString)
        }
        k += 1
      }
      sb.append('}')
      sb.toString
    }

    // --- generic JSON tokenizer ------------------------------------------
    private def parseObject(s: String): Map[String, Any] = {
      var i = 0
      def skipWs(): Unit = while (i < s.length && s.charAt(i).isWhitespace) i += 1
      def parseString(): String = {
        require(s.charAt(i) == '"')
        val sb = new java.lang.StringBuilder
        i = unquote(s, i + 1, i + 1, sb)
        sb.toString
      }
      def parseNumber(): Any = {
        val st = i
        while (i < s.length && "+-.eE0123456789".indexOf(s.charAt(i)) >= 0) i += 1
        val raw = s.substring(st, i)
        if (raw.exists(c => c == '.' || c == 'e' || c == 'E')) raw.toDouble else raw.toLong
      }
      val out = mutable.LinkedHashMap.empty[String, Any]
      skipWs(); require(s.charAt(i) == '{'); i += 1
      skipWs()
      while (s.charAt(i) != '}') {
        val key = parseString()
        skipWs(); require(s.charAt(i) == ':'); i += 1; skipWs()
        val value: Any = s.charAt(i) match {
          case '"' => parseString()
          case _   => parseNumber()
        }
        out(key) = value
        skipWs()
        if (s.charAt(i) == ',') { i += 1; skipWs() }
      }
      out.toMap
    }

    def read(s: String): AlarmEvent = {
      val m    = parseObject(s)
      val ctor = classOf[AlarmEvent].getDeclaredConstructors.head
      // Parameter names come from the companion's apply-compatible field list.
      val fieldNames = classOf[AlarmEvent].getDeclaredFields.toVector
        .filterNot(_.isSynthetic).map(_.getName)
      val args: Array[AnyRef] = fieldNames.zip(ctor.getParameterTypes.toVector).map {
        case (n, t) =>
          val raw = m.getOrElse(n, throw new IllegalArgumentException(s"missing field $n"))
          def bad: Nothing = throw new IllegalArgumentException(s"field $n: unexpected value $raw")
          (t.getName match {
            case "long"             => java.lang.Long.valueOf(raw match { case l: Long => l; case d: Double => d.toLong; case s: String => s.toLong; case _ => bad })
            case "int"              => java.lang.Integer.valueOf(raw match { case l: Long => l.toInt; case d: Double => d.toInt; case s: String => s.toInt; case _ => bad })
            case "double"           => java.lang.Double.valueOf(raw match { case d: Double => d; case l: Long => l.toDouble; case s: String => s.toDouble; case _ => bad })
            case "java.lang.String" => raw.toString
            case other              => throw new IllegalArgumentException(s"unsupported type $other")
          }): AnyRef
      }.toArray
      ctor.newInstance(args: _*).asInstanceOf[AlarmEvent]
    }
  }

  val all: Seq[AlarmSerializer] = Seq(ReflectiveJsonSerializer, FastJsonSerializer)
}
