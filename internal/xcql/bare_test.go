package xcql_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"xcql/internal/evalbench"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmark"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

var bareModes = []xcql.Mode{xcql.CaQ, xcql.QaC, xcql.QaCPlus}

const queryQD = `for $c in stream("auction")//closed_auction return $c/price`

// queryOuterPerParent reads its auctions' stamps only from inside the
// bidder step's per-parent list.
const queryOuterPerParent = `for $a in stream("auction")/site/open_auctions/open_auction
	return $a/bidder[vtFrom(.) < vtFrom($a) + PT24H][1]/increase`

// TestBareReadsAreUnobservable: a read whose tops nothing observes hands
// out the stored payloads instead of lifespan-stamped tops, and no query
// can tell. Every query below — the plan corpus and QD on XMark, indexed
// and scanned, every generated query kind on genstore histories, the
// examples' queries on their streams — returns byte-identical results
// with the marking on and forced off, under CaQ, QaC and QaC+, and is
// charged the same fillers, holes, tsid hits, budget steps and items and
// the same bytes materialized. Only the tops built may fall.
func TestBareReadsAreUnobservable(t *testing.T) {
	for _, c := range bareCorpora(t) {
		marked := 0
		for _, at := range c.instants {
			for _, src := range c.queries {
				for _, mode := range bareModes {
					on := bareRun(t, c.rt, src, mode, at)
					restore := xcql.SetBareReads(false)
					off := bareRun(t, c.rt, src, mode, at)
					restore()
					if off.marked != 0 {
						t.Fatalf("%s: %d reads marked with the marking off", c.name, off.marked)
					}
					marked += on.marked
					where := fmt.Sprintf("%s at %s under %s: %s", c.name, at.Format(time.DateTime), mode, src)
					if on.result != off.result {
						t.Fatalf("%s\nmarked:\n%s\nunmarked:\n%s", where, on.result, off.result)
					}
					if on.counters != off.counters {
						t.Fatalf("%s\nmarked charged   %s\nunmarked charged %s", where, on.counters, off.counters)
					}
					if on.nodes > off.nodes {
						t.Fatalf("%s: %d tops built marked, %d unmarked", where, on.nodes, off.nodes)
					}
				}
			}
		}
		if marked == 0 {
			t.Errorf("%s: no read was marked bare, so nothing was compared", c.name)
		}
	}
}

// bareOutcome is what one evaluation returned and was charged.
type bareOutcome struct {
	result, counters string
	nodes            int64
	marked           int // access paths EXPLAIN shows tops=bare on
}

func bareRun(t *testing.T, rt *xcql.Runtime, src string, mode xcql.Mode, at time.Time) bareOutcome {
	t.Helper()
	q, err := rt.Compile(src, mode)
	if err != nil {
		t.Fatalf("%s under %s: %v", src, mode, err)
	}
	var out bareOutcome
	for _, tgt := range q.Explain().Targets {
		if tgt.Bare {
			out.marked++
		}
	}
	seq, err := q.Eval(at)
	if err != nil {
		t.Fatalf("%s under %s: %v", src, mode, err)
	}
	var b strings.Builder
	for _, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			b.WriteString(n.String())
		} else {
			fmt.Fprintf(&b, "%T %s", it, xq.StringValue(it))
		}
		b.WriteByte('\n')
	}
	s := q.LastStats()
	out.result, out.nodes = b.String(), s.NodesConstructed
	out.counters = fmt.Sprintf("fillers=%d holes=%d tsid=%d/%d steps=%d items=%d bytes=%d",
		s.FillersScanned, s.HolesResolved, s.TSIDLookups, s.TSIDIndexHits, s.Steps, s.Items, s.BytesMaterialized)
	return out
}

// bareCorpus is a runtime and the queries and instants to run on it.
type bareCorpus struct {
	name     string
	rt       *xcql.Runtime
	queries  []string
	instants []time.Time
}

func bareCorpora(t *testing.T) []bareCorpus {
	t.Helper()
	var out []bareCorpus
	xmarkQueries := []string{queryQD, queryOuterPerParent}
	for _, q := range evalbench.Corpus() {
		xmarkQueries = append(xmarkQueries, q.Src)
	}
	for _, scan := range []bool{false, true} {
		ds, err := evalbench.Build(0.005, scan)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bareCorpus{fmt.Sprintf("xmark scan=%v", scan), ds.Runtime, xmarkQueries, []time.Time{evalbench.EvalInstant}})
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []genstore.Profile{
			{Seed: seed},
			{Seed: seed, Reannounce: true},
			{Seed: seed, Scan: true, Duplicates: true},
			{Seed: seed, Reorder: true, Drops: true},
		} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ins.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			rt := xcql.NewRuntime()
			rt.RegisterStream("s", st)
			c := bareCorpus{name: "genstore " + p.String(), rt: rt, instants: ins.Instants}
			for _, q := range ins.Queries {
				c.queries = append(c.queries, q.Src)
			}
			out = append(out, c)
		}
	}
	return append(out, exampleCorpora(t)...)
}

// exampleCorpora are the streams and queries of examples/: the credit
// card processor's (creditcard, with quickstart's queries on the same
// structure), netmon's SYN/ACK streams and traffic's coincidence join.
func exampleCorpora(t *testing.T) []bareCorpus {
	t.Helper()
	credit := xcql.NewRuntime()
	credit.RegisterStream("credit", exampleStore(t, `<stream:structure>
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
</stream:structure>`, []exampleFragment{
		{0, 1, "2003-01-01T00:00:00", `<creditAccounts><hole id="1" tsid="2"/><hole id="2" tsid="2"/></creditAccounts>`},
		{1, 2, "2003-01-01T00:00:00", `<account id="1234"><customer>John Smith</customer><hole id="10" tsid="4"/></account>`},
		{10, 4, "2003-01-01T00:00:00", `<creditLimit>5000</creditLimit>`},
		{2, 2, "2003-01-01T00:00:00", `<account id="5678"><customer>Jane Doe</customer><hole id="20" tsid="4"/></account>`},
		{20, 4, "2003-01-01T00:00:00", `<creditLimit>1000</creditLimit>`},
		{2, 2, "2003-11-02T08:30:00", `<account id="5678"><customer>Jane Doe</customer><hole id="20" tsid="4"/><hole id="30" tsid="5"/><hole id="31" tsid="5"/></account>`},
		{30, 5, "2003-11-02T08:31:00", `<transaction id="t1"><vendor>Electronics Mart</vendor><amount>4200</amount><hole id="40" tsid="7"/></transaction>`},
		{40, 7, "2003-11-02T08:31:05", `<status>charged</status>`},
		{31, 5, "2003-11-02T08:45:00", `<transaction id="t2"><vendor>Jeweller</vendor><amount>900</amount><hole id="41" tsid="7"/></transaction>`},
		{41, 7, "2003-11-02T08:45:10", `<status>charged</status>`},
		{41, 7, "2003-11-05T10:00:00", `<status>suspended</status>`},
	}))
	netmon := xcql.NewRuntime()
	netmon.RegisterStream("gsyn", exampleStore(t, packetStructure("gsyn", "srcIP", "srcPort"), []exampleFragment{
		{0, 1, "2003-06-01T00:00:00", `<gsyn><hole id="1" tsid="2"/><hole id="2" tsid="2"/><hole id="3" tsid="2"/></gsyn>`},
		{1, 2, "2003-06-01T10:00:00", `<packet><id>c1</id><srcIP>10.0.0.1</srcIP><srcPort>4000</srcPort></packet>`},
		{2, 2, "2003-06-01T10:00:10", `<packet><id>c2</id><srcIP>10.0.0.2</srcIP><srcPort>4001</srcPort></packet>`},
		{3, 2, "2003-06-01T10:00:20", `<packet><id>c3</id><srcIP>10.0.0.3</srcIP><srcPort>4002</srcPort></packet>`},
	}))
	netmon.RegisterStream("ack", exampleStore(t, packetStructure("ack", "destIP", "destPort"), []exampleFragment{
		{0, 1, "2003-06-01T00:00:00", `<ack><hole id="101" tsid="2"/></ack>`},
		{101, 2, "2003-06-01T10:00:30", `<packet><id>c1</id><destIP>10.0.0.1</destIP><destPort>4000</destPort></packet>`},
	}))
	traffic := xcql.NewRuntime()
	traffic.RegisterStream("vehicle", exampleStore(t, eventStructure("vehicles", "vehicleID", "type", "location"), []exampleFragment{
		{0, 1, "2003-06-01T00:00:00", `<vehicles><hole id="1" tsid="2"/><hole id="2" tsid="2"/></vehicles>`},
		{1, 2, "2003-06-01T08:00:00", `<event><vehicleID>AMB-42</vehicleID><type>ambulance</type><location>5.02,3.00</location></event>`},
		{2, 2, "2003-06-01T08:03:00", `<event><vehicleID>VAN-9</vehicleID><type>van</type><location>5.02,3.00</location></event>`},
	}))
	traffic.RegisterStream("road_sensor", exampleStore(t, eventStructure("road_sensors", "sensorID", "location", "speed"), []exampleFragment{
		{0, 1, "2003-06-01T00:00:00", `<road_sensors><hole id="101" tsid="2"/><hole id="102" tsid="2"/></road_sensors>`},
		{101, 2, "2003-06-01T08:00:05", `<event><sensorID>S7</sensorID><location>5.00,3.00</location><speed>0.9</speed></event>`},
		{102, 2, "2003-06-01T07:00:00", `<event><sensorID>S7</sensorID><location>5.00,3.00</location><speed>0.5</speed></event>`},
	}))
	traffic.RegisterStream("traffic_light", exampleStore(t, eventStructure("traffic_lights", "id", "location", "status"), []exampleFragment{
		{0, 1, "2003-06-01T00:00:00", `<traffic_lights><hole id="201" tsid="2"/></traffic_lights>`},
		{201, 2, "2003-06-01T08:00:10", `<event><id>L1</id><location>9.00,3.00</location><status>red</status></event>`},
	}))
	traffic.RegisterFunc("distance", func(_ *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
		var p [2][2]float64
		for i := range p {
			if len(args) != 2 || len(args[i]) == 0 {
				return nil, fmt.Errorf("distance wants two locations")
			}
			if _, err := fmt.Sscanf(xq.StringValue(args[i][0]), "%f,%f", &p[i][0], &p[i][1]); err != nil {
				return nil, err
			}
		}
		return xq.Singleton(math.Hypot(p[0][0]-p[1][0], p[0][1]-p[1][1])), nil
	})
	return []bareCorpus{
		{"examples credit", credit, []string{
			`for $a in stream("credit")//account
			 where sum($a/transaction?[2003-11-01,2003-12-01][status = "charged"]/amount) >= $a/creditLimit?[now]
			 return <account>{ attribute id {$a/@id}, $a/customer, $a/creditLimit?[now] }</account>`,
			`for $a in stream("credit")//account
			 where sum($a/transaction?[now-PT1H,now][status = "charged"]/amount) >= max(($a/creditLimit?[now] * 0.9, 5000))
			 return <alert><account id={$a/@id}>{$a/customer}</account></alert>`,
			`sum(stream("credit")//account[@id = "5678"]/transaction[status?[now] = "charged"]/amount)`,
			`stream("credit")//account/creditLimit?[now]`,
			`stream("credit")//account/creditLimit`,
			`sum(stream("credit")//transaction?[2003-10-01,2003-11-01][status = "charged"]/amount)`,
			`for $a in stream("credit")//account return ($a/@id, $a/customer/text(), $a/transaction/amount)`,
			`for $a in (stream("credit")//account, stream("credit")//account) return sum($a/transaction?[now-PT1H,now]/amount)`,
			`for $a in (stream("credit")//account, stream("credit")//account) return $a`,
		}, exampleInstants("2003-11-02T09:00:00", "2003-11-06T00:00:00")},
		{"examples netmon", netmon, []string{
			`for $s in stream("gsyn")//packet
			 where not (some $a in stream("ack")//packet?[vtFrom($s),vtFrom($s)+PT1M]
			            satisfies $s/id = $a/id and $s/srcIP = $a/destIP and $s/srcPort = $a/destPort)
			   and vtFrom($s)+PT1M < now
			 return <warning> { $s/id/text() } </warning>`,
			`for $s in stream("gsyn")//packet return $s/srcIP`,
		}, exampleInstants("2003-06-01T10:00:50", "2003-06-01T10:02:00")},
		{"examples traffic", traffic, []string{
			`for $v in stream("vehicle")//event
			     $r in stream("road_sensor")//event?[vtFrom($v)-PT30S,vtTo($v)+PT30S]
			     $t in stream("traffic_light")//event?[vtFrom($v)-PT30S,vtTo($v)+PT30S]
			 where distance($v/location, $r/location) < 0.1
			   and distance($v/location, $t/location) < 10
			   and $v/type = "ambulance"
			 return <set_traffic_light ID="{$t/id}"><status>green</status>
			          <time>{ vtFrom($t) + (distance($v/location, $t/location) div $r/speed) }</time></set_traffic_light>`,
			`for $r in stream("road_sensor")//event where $r/speed > 0.6 return $r/sensorID`,
		}, exampleInstants("2003-06-01T08:05:00")},
	}
}

type exampleFragment struct {
	fid, tsid int
	at, xml   string
}

func exampleStore(t *testing.T, structure string, frags []exampleFragment) *fragment.Store {
	t.Helper()
	st := fragment.NewStore(tagstruct.MustParseString(structure))
	for _, f := range frags {
		if err := st.Add(fragment.New(f.fid, f.tsid, exampleInstants(f.at)[0], xmldom.MustParseString(f.xml).Root())); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func exampleInstants(spelled ...string) []time.Time {
	out := make([]time.Time, len(spelled))
	for i, s := range spelled {
		at, err := time.Parse("2006-01-02T15:04:05", s)
		if err != nil {
			panic(err)
		}
		out[i] = at
	}
	return out
}

// packetStructure is netmon's: packet events under a root, each an id, an
// address and a port.
func packetStructure(root, ip, port string) string {
	return fmt.Sprintf(`<stream:structure>
<tag type="snapshot" id="1" name="%s">
  <tag type="event" id="2" name="packet">
    <tag type="snapshot" id="3" name="id"/>
    <tag type="snapshot" id="4" name="%s"/>
    <tag type="snapshot" id="5" name="%s"/>
  </tag>
</tag>
</stream:structure>`, root, ip, port)
}

// eventStructure is traffic's: events under a root, three fields each.
func eventStructure(root, a, b, c string) string {
	return fmt.Sprintf(`<stream:structure>
<tag type="snapshot" id="1" name="%s">
  <tag type="event" id="2" name="event">
    <tag type="snapshot" id="3" name="%s"/>
    <tag type="snapshot" id="4" name="%s"/>
    <tag type="snapshot" id="5" name="%s"/>
  </tag>
</tag>
</stream:structure>`, root, a, b, c)
}

// TestBareMarking is the marking rule, case by case: a read is bare when
// the query only navigates through its tops — to their children, holes or
// named attributes — and stamped when anything could see a stamp. The
// dialect has no is or union; a general comparison of two variables
// stands for an expression that takes the tops themselves.
func TestBareMarking(t *testing.T) {
	ds, err := evalbench.Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	credit := fragment.NewStore(tagstruct.MustParseString(genstore.CreditStructure))
	if _, initial := genstore.NewCreditPublisher(2); credit.AddAll(initial) != nil {
		t.Fatal("the credit stream's initial document does not store")
	}
	ds.Runtime.RegisterStream("credit", credit)
	const people = `stream("auction")/site/people/person`
	for _, c := range []struct {
		name, src, tag string
		bare           bool
	}{
		{"Q1", xmark.QueryQ1(), "person", true},
		{"Q2's auctions", xmark.QueryQ2(), "open_auction", true},
		{"Q2's bidders", xmark.QueryQ2(), "bidder", true},
		{"Q5", xmark.QueryQ5(), "closed_auction", true},
		{"QD", queryQD, "closed_auction", true},
		{"a named attribute", `for $b in ` + people + ` return $b/@id`, "person", true},
		{"a let", `for $b in ` + people + ` let $n := $b/name return $n`, "person", true},
		{"an unreferenced variable", `count(for $b in ` + people + ` return 1)`, "person", true},
		{"a sequence of jumps", `for $a in (stream("credit")//account, stream("credit")//account) return sum($a/transaction?[now-PT1H,now]/amount)`, "account", true},
		{"returned", `for $b in ` + people + ` return $b`, "person", false},
		{"@vtFrom", `for $b in ` + people + ` return $b/@vtFrom`, "person", false},
		{"@*", `for $b in ` + people + ` return $b/@*`, "person", false},
		{"vtFrom()", `for $b in ` + people + ` return vtFrom($b)`, "person", false},
		{"an interval projection", `for $b in ` + people + ` return $b?[2000-01-01,now]/name`, "person", false},
		{"a version projection", `for $b in ` + people + ` return $b#[1]/name`, "person", false},
		{"the tops compared", `for $b in ` + people + `, $c in ` + people + ` where $b = $c return $c/name`, "person", false},
		{"a function argument", `declare function f($x) { $x/name }; for $b in ` + people + ` return f($b)`, "person", false},
		{"a filter expression", `for $b in (` + people + `)[name] return $b/name`, "person", false},
		{"a let handed on", `for $b in ` + people + ` let $c := $b return $c`, "person", false},
		{"a per-parent vtFrom(.)", `for $a in stream("auction")/site/open_auctions/open_auction return $a/bidder[vtFrom(.) <= now][1]/increase`, "bidder", false},
		{"an outer variable in a per-parent list", queryOuterPerParent, "open_auction", false},
	} {
		for _, mode := range []xcql.Mode{xcql.QaC, xcql.QaCPlus} {
			q, err := ds.Runtime.Compile(c.src, mode)
			if err != nil {
				t.Fatalf("%s under %s: %v", c.name, mode, err)
			}
			ex := q.Explain()
			found := false
			for _, tgt := range ex.Targets {
				if tgt.Tag != c.tag {
					continue
				}
				found = true
				if tgt.Bare != c.bare {
					t.Errorf("%s under %s: the %s read is bare=%v, want %v\n%s", c.name, mode, c.tag, tgt.Bare, c.bare, ex)
				}
				if strings.Contains(tgt.String(), "tops=bare") != tgt.Bare {
					t.Errorf("%s under %s: access line %q disagrees with Bare=%v", c.name, mode, tgt, tgt.Bare)
				}
			}
			if !found {
				t.Fatalf("%s under %s: no access path on %s\n%s", c.name, mode, c.tag, ex)
			}
		}
	}
}
