package repro.textlytics

import repro.data.{Gazetteer, IncidentSynth}

/** The incident-history pipeline of Figure 5: collect raw messages, filter
  * relevant topics (fire / intrusion), annotate language, date and location,
  * and persist the result (into the document store, Section 4.2(4)).
  */
object IncidentPipeline {

  /** A message that survived topic filtering and annotation. */
  final case class AnnotatedIncident(msg_id: Long, topic: String, lang: String,
                                     city: String, date: String)

  /** Driver-side annotation of one message; metadata wins over extraction. */
  def annotateOne(m: IncidentSynth.RawMessage,
                  loc: Extractors.LocationMatcher): Option[AnnotatedIncident] =
    for {
      topic <- TopicFilter.topic(m.text)
      lang  <- LangId.detect(m.text)
      city  <- Option(m.meta_location).orElse(loc.extract(m.text))
      date  <- Option(m.meta_date)
                 .orElse(Extractors.extractDate(m.text).map(_.toString))
    } yield AnnotatedIncident(m.msg_id, topic, lang, city, date)

  def annotateAll(msgs: Vector[IncidentSynth.RawMessage],
                  cities: Vector[Gazetteer.City]): Vector[AnnotatedIncident] = {
    val loc = new Extractors.LocationMatcher(cities)
    msgs.flatMap(annotateOne(_, loc))
  }
}
