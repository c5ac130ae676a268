package repro.streamlog

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.{Failure, Success, Try}

object SerializersSpec {

  /** Strings that stress the codec: JSON's special characters, every control
    * character and supplementary-plane code points (surrogate pairs). */
  val safeString: Gen[String] =
    Gen.nonEmptyListOf(Gen.oneOf(
      Gen.alphaNumChar.map(_.toString),
      Gen.oneOf(":", ".", "-", "_", " ", "/", "\"", "\\"),
      Gen.choose('\u0000', '\u001f').map(_.toString),
      Gen.choose(0x10000, 0x10ffff).map(cp => new String(Character.toChars(cp)))))
      .map(_.mkString)

  val genEvent: Gen[AlarmEvent] = for {
    id <- Gen.chooseNum(0L, Long.MaxValue / 2)
    da <- safeString; zip <- safeString
    ts <- Gen.chooseNum(0L, 2000000000L)
    dw <- Gen.chooseNum(1, 7); hd <- Gen.chooseNum(0, 23)
    at <- safeString; pt <- safeString; st <- safeString; sw <- safeString
    du <- Gen.chooseNum(0.0, 100000.0)
  } yield AlarmEvent(id, da, zip, ts, dw, hd, at, pt, st, sw, du)

  /** Finite doubles drawn from raw 64-bit patterns, so every exponent is
    * equally likely, plus the edges: subnormals, the extremes and -0.0. */
  val genFinite: Gen[Double] = Gen.frequency(
    8 -> Gen.choose(Long.MinValue, Long.MaxValue).map(longBitsToDouble)
      .suchThat(d => !d.isNaN && !d.isInfinite),
    1 -> Gen.choose(1L, (1L << 52) - 1).map(longBitsToDouble),
    1 -> Gen.oneOf(Double.MinPositiveValue, Double.MaxValue, -Double.MaxValue,
      java.lang.Double.MIN_NORMAL, 0.0, -0.0, 1.0E23, 2.0E-3))

  /** Text over the reader's number alphabet `[0-9.\-E]`: free strings, which
    * are mostly malformed, and number-shaped ones with long mantissas and
    * out-of-range exponents. */
  val genNumberText: Gen[String] = {
    val digits = Gen.choose(0, 25).flatMap(Gen.listOfN(_, Gen.numChar)).map(_.mkString)
    val shaped = for {
      sign <- Gen.oneOf("", "-"); int <- digits
      frac <- Gen.option(digits.map("." + _))
      exp  <- Gen.option(Gen.zip(Gen.oneOf("", "-"), Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.numChar)))
                .map { case (s, e) => "E" + s + e.mkString })
    } yield sign + int + frac.getOrElse("") + exp.getOrElse("")
    val free = Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.frequency(
      6 -> Gen.numChar, 1 -> Gen.const('.'), 1 -> Gen.const('-'), 1 -> Gen.const('E')))).map(_.mkString)
    Gen.oneOf(shaped, free)
  }

  /** Strings with an escaped character at the first position, the last
    * position and two side by side in between. */
  val genEdgeEscapes: Gen[String] = {
    val escaped = Gen.oneOf(Gen.oneOf("\"", "\\"), Gen.choose('\u0000', '\u001f').map(_.toString))
    for {
      first <- escaped; a <- Gen.alphaNumStr; pair1 <- escaped; pair2 <- escaped
      b <- Gen.alphaNumStr; last <- escaped
    } yield first + a + pair1 + pair2 + b + last
  }

  /** Runs `prop` on 500 seeded draws; the result as a ScalaCheck status. */
  def check(prop: Prop): Test.Result =
    Test.check(Test.Parameters.default.withMinSuccessfulTests(500)
      .withInitialSeed(Seed(20180326L)).withWorkers(1), prop)

  /** Deterministic sample batch from the ScalaCheck generator. */
  val randomEvents: Seq[AlarmEvent] =
    Gen.listOfN(200, genEvent).pureApply(Gen.Parameters.default, Seed(12345L))
}

class SerializersSpec extends AnyFunSuite {
  import SerializersSpec.{check, randomEvents}

  private val sample = AlarmEvent(42L, "00:1a:2b:3c:4d:00", "4001", 1451606400L,
    3, 14, "fire", "residential", "smoke_v1", "2.0.1", 12.5)

  for (ser <- Serializers.all) {
    test(s"${ser.name}: round-trips the sample alarm") {
      assert(ser.read(ser.write(sample)) == sample)
    }

    test(s"${ser.name}: round-trips 200 generator-drawn alarms") {
      randomEvents.foreach(a => assert(ser.read(ser.write(a)) == a))
    }

    test(s"${ser.name}: handles quotes and backslashes in strings") {
      val tricky = sample.copy(alarmType = """fi"re\x""", propertyType = "a\\\"b")
      assert(ser.read(ser.write(tricky)) == tricky)
    }

    test(s"${ser.name}: escapes control characters per RFC 8259") {
      val ctl = sample.copy(alarmType = "a\nb\tc\r\b\f\u0000\u001f")
      val s = ser.write(ctl)
      assert(s.forall(_ >= ' '), s)
      assert(s.contains("\"a\\nb\\tc\\r\\b\\f\\u0000\\u001f\""), s)
      assert(ser.read(s) == ctl)
    }

    test(s"${ser.name}: decodes JSON escapes, including \\uXXXX and surrogate pairs") {
      val s = ser.write(sample).replace("\"fire\"", "\"f\\u0069re\\n\\/\\ud83d\\ude92\"")
      assert(ser.read(s) == sample.copy(alarmType = "fire\n/\ud83d\ude92"))
    }

    test(s"${ser.name}: output is valid single-line JSON under 1KB (Fig. 4 format)") {
      val s = ser.write(sample)
      assert(s.startsWith("{") && s.endsWith("}"))
      assert(!s.contains('\n'))
      assert(s.length < 1024, "paper: one alarm is less than 1KB")
    }
  }

  test("both serializers emit the identical wire format") {
    (sample +: randomEvents).foreach { a =>
      assert(Serializers.FastJsonSerializer.write(a)
        == Serializers.ReflectiveJsonSerializer.write(a))
    }
  }

  test("the serializers are wire-compatible in both directions") {
    randomEvents.foreach { a =>
      assert(Serializers.FastJsonSerializer.read(Serializers.ReflectiveJsonSerializer.write(a)) == a)
      assert(Serializers.ReflectiveJsonSerializer.read(Serializers.FastJsonSerializer.write(a)) == a)
    }
  }

  /** `a` as the writer lays it out: (key, raw JSON value) in wire order. A
    * key marker `,"key":` cannot occur inside an escaped string value, where
    * every quote follows a backslash. */
  private def wireFields(a: AlarmEvent): Seq[(String, String)] = {
    val s = Serializers.FastJsonSerializer.write(a)
    val keys = a.productElementNames.toSeq
    var from = 0
    val spans = keys.zipWithIndex.map { case (k, n) =>
      val mark = (if (n == 0) "{\"" else ",\"") + k + "\":"
      val at = s.indexOf(mark, from)
      from = at + mark.length
      (at, from)
    }
    keys.indices.map { n =>
      keys(n) -> s.substring(spans(n)._2, if (n + 1 < keys.size) spans(n + 1)._1 else s.length - 1)
    }
  }

  private def render(fields: Seq[(String, String)], space: String): String =
    fields.map { case (k, v) => "\"" + k + "\":" + space + v }.mkString("{", "," + space, "}")

  test("records off the writer's layout: the reflective reader decodes them, the hand-rolled one rejects them") {
    val fast = Serializers.FastJsonSerializer
    (sample +: randomEvents).foreach { a =>
      val s = fast.write(a)
      assert(render(wireFields(a), "") == s)
      for (other <- Seq(render(wireFields(a), " "), render(wireFields(a).reverse, ""))) {
        assert(Serializers.ReflectiveJsonSerializer.read(other) == a)
        intercept[IllegalArgumentException] { fast.read(other) }
      }
      for (n <- 0 until s.length) intercept[IllegalArgumentException] { fast.read(s.substring(0, n)) }
    }
  }

  test("writers reject a non-finite durationSec, which has no JSON form") {
    for (ser <- Serializers.all; d <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      intercept[IllegalArgumentException] { ser.write(sample.copy(durationSec = d)) }
  }

  test("property: number(d) parses back to the same bits, and the record round-trips") {
    val fast = Serializers.FastJsonSerializer
    val result = check(Prop.forAllNoShrink(SerializersSpec.genFinite) { d =>
      val bits = doubleToRawLongBits(d)
      val a = sample.copy(durationSec = d)
      doubleToRawLongBits(java.lang.Double.parseDouble(Serializers.number(d))) == bits &&
        Serializers.all.forall(r => doubleToRawLongBits(r.read(fast.write(a)).durationSec) == bits)
    })
    assert(result.passed, result.status.toString)
  }

  test("property: the hand-rolled reader decodes number text exactly as Double.parseDouble") {
    val fast = Serializers.FastJsonSerializer
    val wire = fast.write(sample)
    assert(wire.endsWith(",\"durationSec\":12.5}"))
    val result = check(Prop.forAllNoShrink(SerializersSpec.genNumberText) { text =>
      val rec = wire.stripSuffix("12.5}") + text + "}"
      (Try(java.lang.Double.parseDouble(text)), Try(fast.read(rec).durationSec)) match {
        case (Success(want), Success(got)) => doubleToRawLongBits(want) == doubleToRawLongBits(got)
        case (Failure(_), Failure(e))      => e.isInstanceOf[IllegalArgumentException]
        case _                             => false
      }
    })
    assert(result.passed, result.status.toString)
  }

  test("property: escapes at the first, the last and adjacent positions round-trip through both readers") {
    val result = check(Prop.forAllNoShrink(SerializersSpec.genEdgeEscapes) { s =>
      val a = sample.copy(deviceAddr = s, alarmType = s.reverse, swVersion = s)
      Serializers.all.forall(w => Serializers.all.forall(r => r.read(w.write(a)) == a))
    })
    assert(result.passed, result.status.toString)
  }

  test("reflective reader rejects documents with missing fields") {
    intercept[Exception] {
      Serializers.ReflectiveJsonSerializer.read("""{"id": 1}""")
    }
  }

  test("the hand-rolled serializer is not slower than the reflective one") {
    val events = (0 until 20000).map(i => sample.copy(id = i.toLong))
    def time(ser: AlarmSerializer): Double = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < events.size) { ser.read(ser.write(events(i))); i += 1 }
      (System.nanoTime() - t0) / 1e9
    }
    time(Serializers.FastJsonSerializer); time(Serializers.ReflectiveJsonSerializer) // warmup
    val fast = time(Serializers.FastJsonSerializer)
    val refl = time(Serializers.ReflectiveJsonSerializer)
    assert(fast <= refl * 1.2, f"fast=$fast%.3fs reflective=$refl%.3fs")
  }
}
