package xcql

import (
	"strings"
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// Multi-stream coincidence queries (§2): two radar streams joined on
// frequency within a one-second window of each other's events.

const radarWire = `<stream:structure>
<tag type="snapshot" id="1" name="radar">
  <tag type="event" id="2" name="event">
    <tag type="snapshot" id="3" name="frequency"/>
    <tag type="snapshot" id="4" name="angle"/>
  </tag>
</tag>
</stream:structure>`

func radarStore(t *testing.T, events []struct {
	at        string
	freq, ang string
}) *fragment.Store {
	t.Helper()
	s, err := tagstruct.ParseString(radarWire)
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(s)
	holes := ""
	for i := range events {
		holes += xmldom.Elem("hole", []xmldom.Attr{{Name: "id", Value: itoa(i + 1)}, {Name: "tsid", Value: "2"}}).String()
	}
	root := xmldom.MustParseString("<radar>" + holes + "</radar>").Root()
	if err := st.Add(fragment.New(fragment.RootFillerID, 1, ts("2003-01-01T00:00:00"), root)); err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		payload := xmldom.MustParseString(
			"<event><frequency>" + e.freq + "</frequency><angle>" + e.ang + "</angle></event>").Root()
		if err := st.Add(fragment.New(i+1, 2, ts(e.at), payload)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func itoa(n int) string {
	return string(rune('0' + n))
}

func TestCoincidenceJoinAcrossStreams(t *testing.T) {
	rt := NewRuntime()
	rt.RegisterStream("radar1", radarStore(t, []struct{ at, freq, ang string }{
		{"2003-06-01T10:00:00", "101.5", "45"},
		{"2003-06-01T11:00:00", "88.1", "10"},
	}))
	rt.RegisterStream("radar2", radarStore(t, []struct{ at, freq, ang string }{
		{"2003-06-01T10:00:00", "101.5", "135"}, // matches the first radar1 event
		{"2003-06-01T10:30:00", "88.1", "20"},   // right frequency, wrong time
	}))
	rt.RegisterFunc("triangulate", func(_ *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
		return xq.Singleton(xq.StringValue(args[0][0]) + "/" + xq.StringValue(args[1][0])), nil
	})

	// the paper's radar query (§2, example 2)
	src := `for $r in stream("radar1")//event,
	            $s in stream("radar2")//event
	                  ?[vtFrom($r)-PT1S,vtTo($r)+PT1S]
	        where $r/frequency = $s/frequency
	        return <position>{ triangulate($r/angle,$s/angle) }</position>`

	for _, mode := range allModes {
		q, err := rt.Compile(src, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		seq, err := q.Eval(ts("2003-06-01T12:00:00"))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(seq) != 1 {
			t.Fatalf("%s: positions = %d (%v)", mode, len(seq), xq.Strings(seq))
		}
		pos := seq[0].(*xmldom.Node)
		if got := pos.TrimmedText(); got != "45/135" {
			t.Fatalf("%s: triangulated = %q", mode, got)
		}
	}
}

func TestMultiStreamPlanKeepsStreamsSeparate(t *testing.T) {
	rt := NewRuntime()
	rt.RegisterStream("radar1", radarStore(t, []struct{ at, freq, ang string }{
		{"2003-06-01T10:00:00", "101.5", "45"},
	}))
	rt.RegisterStream("radar2", radarStore(t, []struct{ at, freq, ang string }{
		{"2003-06-01T10:00:00", "200.0", "1"},
		{"2003-06-01T10:00:01", "200.1", "2"},
	}))
	q := rt.MustCompile(`(count(stream("radar1")//event), count(stream("radar2")//event))`, QaCPlus)
	seq, err := q.Eval(ts("2003-06-01T12:00:00"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(xq.Strings(seq), ","); got != "1,2" {
		t.Fatalf("per-stream counts = %q", got)
	}
	// the plan names both streams
	plan := q.Plan.String()
	if !strings.Contains(plan, `"radar1"`) || !strings.Contains(plan, `"radar2"`) {
		t.Fatalf("plan lost stream identity:\n%s", plan)
	}
}

func TestDeclaredFunctionThroughCompiler(t *testing.T) {
	rt := newRuntime(t)
	src := `declare function totalCharged($txs) {
	          sum($txs[status = "charged"]/amount)
	        };
	        for $a in stream("credit")//account
	        return totalCharged($a/transaction)`
	got := evalAll(t, rt, src)
	// account 1234: 3800.20 + 1200 (both have a charged version);
	// account 5678: 950
	if len(got) != 2 || got[0] != "5000.2" || got[1] != "950" {
		t.Fatalf("totals = %v", got)
	}
}

const nestedWire = `<stream:structure>
<tag type="snapshot" id="1" name="doc">
  <tag type="temporal" id="2" name="a">
    <tag type="temporal" id="3" name="b">
      <tag type="temporal" id="4" name="c"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

// nestedStore is doc/a/b/c with every level below the root a filler of
// its own, ids minted from 1 the way every Fragmenter mints them; mark is
// the text of the innermost <c>.
func nestedStore(t *testing.T, mark string) *fragment.Store {
	t.Helper()
	s, err := tagstruct.ParseString(nestedWire)
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(s)
	at := ts("2003-01-01T00:00:00")
	for _, f := range []*fragment.Fragment{
		fragment.New(fragment.RootFillerID, 1, at, xmldom.MustParseString(`<doc><hole id="1" tsid="2"/></doc>`).Root()),
		fragment.New(1, 2, at, xmldom.MustParseString(`<a><hole id="2" tsid="3"/></a>`).Root()),
		fragment.New(2, 3, at, xmldom.MustParseString(`<b><hole id="3" tsid="4"/></b>`).Root()),
		fragment.New(3, 4, at, xmldom.MustParseString(`<c>`+mark+`</c>`).Root()),
	} {
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestHolesResolveInTheQueriedStream: filler ids are unique within a
// stream only, so the holes a result carries must be filled from the
// stream the query names — never from another stream registered on the
// same runtime that happens to hold the same ids.
func TestHolesResolveInTheQueriedStream(t *testing.T) {
	rt := NewRuntime()
	rt.RegisterStream("one", nestedStore(t, "one"))
	rt.RegisterStream("two", nestedStore(t, "two"))
	at := ts("2003-06-01T00:00:00")
	for _, mode := range allModes {
		for _, cache := range []int{0, 64} {
			q := rt.MustCompile(`stream("one")/doc/a/b`, mode).WithCache(cache)
			for i := 0; i < 50; i++ {
				seq, err := q.Eval(at)
				if err != nil {
					t.Fatalf("%s cache=%d: %v", mode, cache, err)
				}
				if len(seq) != 1 {
					t.Fatalf("%s cache=%d: %d items", mode, cache, len(seq))
				}
				if got := seq[0].(*xmldom.Node).TrimmedText(); got != "one" {
					t.Fatalf("%s cache=%d eval %d: <c> = %q, want stream one's", mode, cache, i, got)
				}
			}
		}
	}
}
