package xcql_test

import (
	"errors"
	"strings"
	"testing"
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

const docXML = `<creditAccounts>
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

var at = time.Date(2003, time.November, 15, 12, 0, 0, 0, time.UTC)

func newEngine(t testing.TB) *xcql.Engine {
	t.Helper()
	e := xcql.NewEngine()
	structure, err := xcql.ParseTagStructure(structureXML)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xcql.ParseDocument(docXML)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddDocumentStream("credit", structure, doc); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineEval(t *testing.T) {
	e := newEngine(t)
	seq, err := e.Eval(`stream("credit")//account/customer`, at)
	if err != nil {
		t.Fatal(err)
	}
	if got := xcql.FormatSequence(seq); !strings.Contains(got, "John Smith") {
		t.Fatalf("result = %q", got)
	}
}

func TestEngineAllModes(t *testing.T) {
	e := newEngine(t)
	for _, mode := range []xcql.Mode{xcql.CaQ, xcql.QaC, xcql.QaCPlus} {
		q, err := e.Compile(`sum(stream("credit")//transaction/amount)`, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		seq, err := q.Eval(at)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := xcql.StringValue(seq[0]); got != "38.2" {
			t.Fatalf("%v: sum = %q", mode, got)
		}
	}
}

func TestEngineMaterializeView(t *testing.T) {
	e := newEngine(t)
	view, err := e.MaterializeView("credit", at)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Descendants("creditLimit")) != 2 {
		t.Fatalf("view = %s", view)
	}
	if _, err := e.MaterializeView("nope", at); err == nil {
		t.Fatal("unknown stream should fail")
	}
}

func TestEngineUserFunc(t *testing.T) {
	e := newEngine(t)
	e.RegisterFunc("twice", func(_ *xcql.EvalContext, args []xcql.Sequence) (xcql.Sequence, error) {
		return xcql.Sequence{xcql.NumberValue(args[0][0]) * 2}, nil
	})
	seq, err := e.Eval(`twice(21)`, at)
	if err != nil {
		t.Fatal(err)
	}
	if xcql.StringValue(seq[0]) != "42" {
		t.Fatalf("twice = %v", seq[0])
	}
}

func TestEngineContinuousOverBroadcast(t *testing.T) {
	structure := xcql.MustParseTagStructure(structureXML)
	server := xcql.NewServer("credit", structure)
	defer server.Close()

	// publish the initial document as fragments
	fr := xcql.NewFragmenter(structure)
	fr.CoalesceVersions = true
	doc := xcql.MustParseDocument(docXML)
	frags, err := fr.Fragment(doc)
	if err != nil {
		t.Fatal(err)
	}
	server.PublishAll(frags)

	client := xcql.NewClient("credit", structure)
	defer client.Close()
	engine := xcql.NewEngine()
	engine.AttachClient(client)

	q := engine.MustCompile(
		`for $t in stream("credit")//transaction where $t/amount > 100 return $t/@id`,
		xcql.QaCPlus)
	var last xcql.RegistryResult
	standing := engine.Registry()
	standing.SetClock(func() time.Time { return at })
	reg, err := standing.Register(q, xcql.RegistryOptions{OnResult: func(r xcql.RegistryResult) { last = r }})
	if err != nil {
		t.Fatal(err)
	}
	client.AttachRegistry(standing)

	sub := server.Subscribe(128, true)
	done := make(chan struct{})
	go func() { client.Consume(sub); close(done) }()

	// A big transaction arrives. In the Hole-Filler model an insertion
	// updates the parent fragment with a new hole (§1): the fragmenter
	// assigned account=1, creditLimit=2, transaction=3, status=4, so the
	// account update keeps holes 2 and 3 and adds hole 42.
	acct := xcql.MustParseDocument(`<account id="1234"><customer>John Smith</customer><hole id="2" tsid="4"/><hole id="3" tsid="5"/><hole id="42" tsid="5"/></account>`).Root()
	server.Publish(xcql.NewFragment(1, 2, at.Add(-2*time.Hour), acct))
	tx := xcql.MustParseDocument(`<transaction id="99999"><vendor>BigCo</vendor><amount>9000</amount></transaction>`).Root()
	server.Publish(xcql.NewFragment(42, 5, at.Add(-time.Hour), tx))
	server.Close()
	<-done

	if len(reg.ItemsSnapshot()) == 0 {
		t.Fatalf("standing query produced nothing; errs=%v", client.Errs())
	}
	if got := xcql.FormatSequence(last.Delta); !strings.Contains(got, "99999") {
		t.Fatalf("delta = %q", got)
	}

	// the reachability-respecting QaC plan agrees: the new transaction is
	// linked through the updated account fragment
	qc := engine.MustCompile(`count(stream("credit")//transaction)`, xcql.QaC)
	seq, err := qc.Eval(at)
	if err != nil {
		t.Fatal(err)
	}
	if xcql.StringValue(seq[0]) != "2" {
		t.Fatalf("QaC transaction count = %v", seq[0])
	}
}

func TestInferTagStructureFacade(t *testing.T) {
	doc := xcql.MustParseDocument(docXML)
	s, err := xcql.InferTagStructure(doc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Root.Name != "creditAccounts" {
		t.Fatalf("root = %q", s.Root.Name)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := xcql.ParseDateTime("2003-01-01T00:00:00"); err != nil {
		t.Fatal(err)
	}
	if _, err := xcql.ParseDuration("PT1M"); err != nil {
		t.Fatal(err)
	}
	if _, err := xcql.ParseFragment(`<filler id="1" tsid="2" validTime="2003-01-01T00:00:00"><account/></filler>`); err != nil {
		t.Fatal(err)
	}
	// a delta frame has no store here to find its predecessor in
	_, err := xcql.ParseFragment(`<filler id="1" tsid="2" validTime="2003-01-01T00:01:00" base="2003-01-01T00:00:00" kept="1"><account><hole id="7" tsid="5"/></account></filler>`)
	if miss := (*xcql.MissingPredecessorError)(nil); !errors.As(err, &miss) || miss.FillerID != 1 || miss.Kept != 1 {
		t.Fatalf("ParseFragment of a delta frame: %v", err)
	}
	h := xcql.NewHole(5, 7)
	if h.AttrOr("id", "") != "5" {
		t.Fatal("hole helper")
	}
}
