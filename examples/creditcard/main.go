// The paper's running example (§3.1) end to end: a credit-card processor
// broadcasts account updates and charge events as fragments; a client
// runs the paper's Query 1 (maxed-out accounts) and Query 2 (fraud
// detection) continuously as the stream arrives.
//
//	go run ./examples/creditcard
package main

import (
	"fmt"
	"log"
	"time"

	"xcql"
)

const structureXML = `<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="customer"/>
    <tag type="temporal" id="4" name="creditLimit"/>
    <tag type="event" id="5" name="transaction">
      <tag type="snapshot" id="6" name="vendor"/>
      <tag type="temporal" id="7" name="status"/>
      <tag type="snapshot" id="8" name="amount"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

// Query 1 (§3.1): accounts maxed out in the billing period of November
// 2003 — the cumulative charged amount meets the current credit limit.
const query1 = `
for $a in stream("credit")//account
where sum($a/transaction?[2003-11-01,2003-12-01]
          [status = "charged"]/amount) >=
      $a/creditLimit?[now]
return
  <account>
    { attribute id {$a/@id},
      $a/customer,
      $a/creditLimit?[now] }
  </account>`

// Query 2 (§3.1): potential fraud — charges within the last hour total
// more than max(90% of the current limit, 5000).
const query2 = `
for $a in stream("credit")//account
where sum($a/transaction?[now-PT1H,now]
          [status = "charged"]/amount) >=
      max(($a/creditLimit?[now] * 0.9, 5000))
return
  <alert>
    <account id={$a/@id}>
      {$a/customer}
    </account>
  </alert>`

func main() {
	structure := xcql.MustParseTagStructure(structureXML)
	server := xcql.NewServer("credit", structure)
	defer server.Close()
	client := xcql.NewClient("credit", structure)
	defer client.Close()

	engine := xcql.NewEngine()
	engine.AttachClient(client)

	// the simulated feed's clock; the standing queries, registrations on
	// the engine's registry, evaluate against it
	clock := time.Date(2003, time.November, 2, 9, 0, 0, 0, time.UTC)
	standing := engine.Registry()
	standing.SetClock(func() time.Time { return clock })
	client.AttachRegistry(standing)

	register := func(label, src string) {
		q, err := engine.Compile(src, xcql.QaCPlus)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		_, err = standing.Register(q, xcql.RegistryOptions{OnResult: func(r xcql.RegistryResult) {
			if len(r.Delta) > 0 {
				fmt.Printf("[%s] %s:\n%s\n", r.At.Format("2006-01-02 15:04"), label,
					xcql.FormatSequence(r.Delta))
			}
		}})
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
	}
	register("Query 1: maxed-out account", query1)
	register("Query 2: fraud alert", query2)

	// subscribe the client and pump the broker synchronously for the demo
	sub := server.Subscribe(1024, true)
	done := make(chan struct{})
	go func() { client.Consume(sub); close(done) }()

	ts := func(s string) time.Time {
		t, err := time.Parse("2006-01-02T15:04:05", s)
		if err != nil {
			log.Fatal(err)
		}
		return t.UTC()
	}
	el := func(src string) *xcql.Node { return xcql.MustParseDocument(src).Root() }

	// Initial document: two accounts, one small limit.
	fmt.Println("--- initial document arrives as fragments")
	server.Publish(xcql.NewFragment(0, 1, ts("2003-01-01T00:00:00"),
		el(`<creditAccounts><hole id="1" tsid="2"/><hole id="2" tsid="2"/></creditAccounts>`)))
	server.Publish(xcql.NewFragment(1, 2, ts("2003-01-01T00:00:00"),
		el(`<account id="1234"><customer>John Smith</customer><hole id="10" tsid="4"/></account>`)))
	server.Publish(xcql.NewFragment(10, 4, ts("2003-01-01T00:00:00"), el(`<creditLimit>5000</creditLimit>`)))
	server.Publish(xcql.NewFragment(2, 2, ts("2003-01-01T00:00:00"),
		el(`<account id="5678"><customer>Jane Doe</customer><hole id="20" tsid="4"/></account>`)))
	server.Publish(xcql.NewFragment(20, 4, ts("2003-01-01T00:00:00"), el(`<creditLimit>1000</creditLimit>`)))

	// A burst of charges against Jane's card within one hour — the unit
	// of update is a fragment: the account is re-sent with new holes, the
	// transactions follow as event fillers, their statuses as temporal
	// fillers.
	fmt.Println("--- 08:30-09:00: rapid charges on account 5678")
	server.Publish(xcql.NewFragment(2, 2, ts("2003-11-02T08:30:00"),
		el(`<account id="5678"><customer>Jane Doe</customer><hole id="20" tsid="4"/><hole id="30" tsid="5"/><hole id="31" tsid="5"/></account>`)))
	server.Publish(xcql.NewFragment(30, 5, ts("2003-11-02T08:31:00"),
		el(`<transaction id="t1"><vendor>Electronics Mart</vendor><amount>4200</amount><hole id="40" tsid="7"/></transaction>`)))
	server.Publish(xcql.NewFragment(40, 7, ts("2003-11-02T08:31:05"), el(`<status>charged</status>`)))
	server.Publish(xcql.NewFragment(31, 5, ts("2003-11-02T08:45:00"),
		el(`<transaction id="t2"><vendor>Jeweller</vendor><amount>900</amount><hole id="41" tsid="7"/></transaction>`)))
	server.Publish(xcql.NewFragment(41, 7, ts("2003-11-02T08:45:10"), el(`<status>charged</status>`)))

	server.Close()
	<-done

	// Jane disputes the jeweller charge three days later: the status
	// filler is re-sent with a new validTime — the charge disappears from
	// [status = "charged"] windows evaluated ?[now] onwards.
	fmt.Println("--- Nov 5: the jeweller charge is suspended after a dispute")
	client.Apply(xcql.NewFragment(41, 7, ts("2003-11-05T10:00:00"), el(`<status>suspended</status>`)))

	clock = time.Date(2003, time.November, 6, 0, 0, 0, 0, time.UTC)
	sum, err := engine.Eval(
		`sum(stream("credit")//account[@id = "5678"]/transaction[status?[now] = "charged"]/amount)`, clock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("currently-charged total on 5678 after the dispute: %s\n", xcql.FormatSequence(sum))

	// And the full history remains queryable — the temporal view.
	view, err := engine.MaterializeView("credit", clock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- materialized temporal view")
	fmt.Println(view.IndentString())
}
