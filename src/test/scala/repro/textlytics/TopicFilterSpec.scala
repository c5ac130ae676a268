package repro.textlytics

import org.scalatest.funsuite.AnyFunSuite

class TopicFilterSpec extends AnyFunSuite {

  test("German fire report is classified as fire") {
    assert(TopicFilter.topic("Brand in Oberwil: Die Feuerwehr war im Einsatz.").contains("fire"))
  }

  test("French fire report is classified as fire") {
    assert(TopicFilter.topic("Incendie à Lausanne, les pompiers sont intervenus.").contains("fire"))
  }

  test("English fire report is classified as fire") {
    assert(TopicFilter.topic("A blaze broke out downtown, smoke everywhere.").contains("fire"))
  }

  test("German intrusion report is classified as intrusion") {
    assert(TopicFilter.topic("Einbruch in ein Geschäft, die Polizei ermittelt.").contains("intrusion"))
  }

  test("French intrusion report is classified as intrusion") {
    assert(TopicFilter.topic("Cambriolage dans une villa, enquête en cours.").contains("intrusion"))
  }

  test("English intrusion report is classified as intrusion") {
    assert(TopicFilter.topic("A burglary was reported, police suspect a break-in.").contains("intrusion"))
  }

  test("fireworks are not a fire incident (word boundary)") {
    assert(TopicFilter.topic("Grosses Feuerwerk am Seenachtsfest begeistert die Besucher.").isEmpty)
    assert(TopicFilter.topic("The fireworks show drew thousands.").isEmpty)
  }

  test("sports and weather decoys are irrelevant") {
    assert(TopicFilter.topic("Der FC gewinnt das Derby mit 3:1.").isEmpty)
    assert(TopicFilter.topic("Sunny weather expected all week.").isEmpty)
  }

  test("matching is case-insensitive") {
    assert(TopicFilter.topic("FEUER in der Altstadt!").contains("fire"))
    assert(TopicFilter.topic("BURGLARY on Main Street").contains("intrusion"))
  }

  test("more hits win when both topics occur") {
    assert(TopicFilter.topic("Einbruch gemeldet; Einbrecher legten Feuer.").contains("intrusion"))
  }

  test("fire breaks ties") {
    assert(TopicFilter.topic("Feuer nach Einbruch.").contains("fire"))
  }

  test("empty text is irrelevant") {
    assert(TopicFilter.topic("").isEmpty)
  }

  test("keyword inside a longer word does not match") {
    assert(TopicFilter.topic("Der Feuerlöscher wurde geprüft.").isEmpty)
    assert(TopicFilter.topic("Smokescreen tactics in politics.").isEmpty)
  }
}
