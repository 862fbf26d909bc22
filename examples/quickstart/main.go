// Quickstart: build a temporal XML stream from a document, run XCQL
// queries over its history, and watch the three execution plans agree.
//
//	go run ./examples/quickstart
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

// The running example of the paper (§3.1): an account whose credit limit
// was raised in 2001 and a charge whose status later flipped.
const documentXML = `<creditAccounts>
  <account id="1234" vtFrom="1998-10-10T12:20:22" vtTo="now">
    <customer>John Smith</customer>
    <creditLimit vtFrom="1998-10-10T12:20:22" vtTo="2001-04-23T23:11:08">2000</creditLimit>
    <creditLimit vtFrom="2001-04-23T23:11:08" vtTo="now">5000</creditLimit>
    <transaction id="12345" vtFrom="2003-10-23T12:23:34" vtTo="2003-10-23T12:23:34">
      <vendor>Southlake Pizza</vendor>
      <amount>38.20</amount>
      <status vtFrom="2003-10-23T12:24:35" vtTo="now">charged</status>
    </transaction>
  </account>
</creditAccounts>`

func main() {
	engine := xcql.NewEngine()
	structure, err := xcql.ParseTagStructure(structureXML)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := xcql.ParseDocument(documentXML)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := engine.AddDocumentStream("credit", structure, doc); err != nil {
		log.Fatal(err)
	}

	at := time.Date(2003, time.November, 15, 12, 0, 0, 0, time.UTC)

	// 1. A current-state query: the credit limit valid right now.
	currentLimit := `stream("credit")//account/creditLimit?[now]`
	// 2. A historical query: every limit the account ever had.
	allLimits := `stream("credit")//account/creditLimit`
	// 3. A temporal aggregate: total charged in October 2003.
	octoberTotal := `sum(stream("credit")//transaction?[2003-10-01,2003-11-01]
	                     [status = "charged"]/amount)`

	for _, q := range []struct{ label, src string }{
		{"current credit limit", currentLimit},
		{"all limit versions", allLimits},
		{"October charges", octoberTotal},
	} {
		fmt.Printf("== %s\n", q.label)
		for _, mode := range []xcql.Mode{xcql.CaQ, xcql.QaC, xcql.QaCPlus} {
			compiled, err := engine.Compile(q.src, mode)
			if err != nil {
				log.Fatal(err)
			}
			res, err := compiled.Eval(at)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-4s -> %s\n", mode, xcql.FormatSequence(res))
		}
	}

	// The materialized temporal view, for comparison (normally this is
	// never built — the whole point of QaC/QaC+).
	view, err := engine.MaterializeView("credit", at)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== materialized temporal view")
	fmt.Println(view.IndentString())
}
