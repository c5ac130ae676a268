package repro.textlytics

import java.util.regex.Pattern

/** Keyword-based topic filter of the incident pipeline (Figure 5): keep only
  * reports about fire or intrusion incidents, in any of the three corpus
  * languages. Matching is word-bounded so near-misses ("Feuerwerk",
  * fireworks) do not count as fire incidents.
  */
object TopicFilter {

  val FireKeywords: Seq[String] = Seq(
    "brand", "brannte", "brennt", "feuer", "feuerwehr", "rauch",        // de
    "incendie", "feu", "flammes", "pompiers",                            // fr
    "fire", "blaze", "smoke", "firefighters")                            // en

  val IntrusionKeywords: Seq[String] = Seq(
    "einbruch", "einbrecher", "eingebrochen",                            // de
    "cambriolage", "cambrioleurs", "cambrioleur",                        // fr
    "burglary", "burglar", "break-in", "intrusion")                      // en

  private def compile(kws: Seq[String]): Pattern =
    Pattern.compile(
      kws.map(k => "(?<![\\p{L}])" + Pattern.quote(k) + "(?![\\p{L}])").mkString("|"),
      Pattern.CASE_INSENSITIVE | Pattern.UNICODE_CASE)

  private val firePat      = compile(FireKeywords)
  private val intrusionPat = compile(IntrusionKeywords)

  private def hits(p: Pattern, text: String): Int = {
    val m = p.matcher(text)
    var n = 0
    while (m.find()) n += 1
    n
  }

  /** Classify a message: Some("fire") / Some("intrusion") when incident
    * keywords occur (more hits wins; fire breaks ties), None otherwise. */
  def topic(text: String): Option[String] = {
    val f = hits(firePat, text)
    val i = hits(intrusionPat, text)
    if (f == 0 && i == 0) None
    else if (f >= i) Some("fire")
    else Some("intrusion")
  }
}
