package repro.textlytics

import repro.{SparkSpec, TestFixtures}

class IncidentPipelineSpec extends SparkSpec {

  private lazy val (msgs, truth) = TestFixtures.incidents
  private lazy val annotated = IncidentPipeline.annotateAll(msgs, TestFixtures.cities)
  private lazy val truthById = truth.map(t => t.msg_id -> t).toMap

  test("all decoys are filtered out") {
    val relevantIds = truth.map(_.msg_id).toSet
    assert(annotated.forall(a => relevantIds(a.msg_id)))
  }

  test("nearly all relevant reports survive annotation") {
    val recall = annotated.size.toDouble / truth.size
    assert(recall > 0.95, s"pipeline recall $recall")
  }

  test("topics are recovered correctly") {
    annotated.foreach(a => assert(a.topic == truthById(a.msg_id).topic,
      s"msg ${a.msg_id}: got ${a.topic}"))
  }

  test("languages are recovered correctly") {
    annotated.foreach(a => assert(a.lang == truthById(a.msg_id).lang,
      s"msg ${a.msg_id}: got ${a.lang}"))
  }

  test("cities are recovered correctly") {
    annotated.foreach(a => assert(a.city == truthById(a.msg_id).city))
  }

  test("dates are recovered correctly") {
    annotated.foreach(a => assert(a.date == truthById(a.msg_id).date))
  }

  test("annotation ids are unique") {
    assert(annotated.map(_.msg_id).distinct.size == annotated.size)
  }

  test("metadata wins over text extraction") {
    val m = repro.data.IncidentSynth.RawMessage(999999L, "rss",
      "Brand in Seefeld am 01.01.2016, die Feuerwehr war da.",
      "2017-05-05", "Oberdorf")
    val loc = new Extractors.LocationMatcher(TestFixtures.cities)
    val a = IncidentPipeline.annotateOne(m, loc).get
    assert(a.city == "Oberdorf" && a.date == "2017-05-05")
  }

  test("a message missing both metadata and extractable location is dropped") {
    val m = repro.data.IncidentSynth.RawMessage(999998L, "twitter",
      "Brand in der Innenstadt, die Feuerwehr war im Einsatz am 01.01.2016.", null, null)
    val loc = new Extractors.LocationMatcher(TestFixtures.cities)
    assert(IncidentPipeline.annotateOne(m, loc).isEmpty)
  }
}
