package registry

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/inc"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
)

// The members of an engine share consume one advance: each gets the delta
// with the serials the engine diffed by — the same strings, not a
// serialization per member — and each one's LastStats shows what that
// advance cost, as a copy: the share counts the next arrival into the same
// storage, and neither a snapshot taken earlier nor a reader racing the
// arrival may see that.
func TestShareMembersGetOneAdvance(t *testing.T) {
	st := fragment.NewStore(churnStructure(t))
	at := time.Date(2003, time.June, 1, 0, 0, 0, 0, time.UTC)
	r := New(func() time.Time { return at })
	arrive := func(f *fragment.Fragment) {
		t.Helper()
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
		r.Apply(f)
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("log", st)
	var queries [3]*xcql.Query
	var last [3]Result
	for i := range queries {
		queries[i] = rt.MustCompile(`for $e in stream("log")//event return $e`, xcql.QaCPlus)
		if _, err := r.Register(queries[i], Options{OnResult: func(res Result) { last[i] = res }}); err != nil {
			t.Fatal(err)
		}
	}
	root := `<log>`
	for fid := 100; fid < 140; fid++ {
		root += `<hole id="` + strconv.Itoa(fid) + `" tsid="2"/>`
	}
	arrive(fragment.New(0, 1, at, churnEl(t, root+`</log>`)))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // under -race: LastStats beside the arrivals that count into the share's scratch
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := queries[2].LastStats(); s.HandlerInvocations > 1 {
					t.Errorf("a reader saw %d handler runs in one advance", s.HandlerInvocations)
					return
				}
			}
		}
	}()
	for fid := 100; fid < 140; fid++ {
		arrive(fragment.New(fid, 2, at, churnEl(t, `<event>`+strconv.Itoa(fid)+`</event>`)))
		for i := range last {
			if len(last[i].Delta) != 1 || len(last[i].Serials) != 1 || last[i].Serials[0] != inc.ItemSerial(last[i].Delta[0]) {
				t.Fatalf("member %d got delta %v serials %q, want the one event", i, last[i].Delta, last[i].Serials)
			}
			if &last[i].Serials[0] != &last[0].Serials[0] {
				t.Fatalf("member %d was handed serials of its own", i)
			}
			if s := queries[i].LastStats(); s.Plan != "QaC++inc" || s.HandlerInvocations != 1 || s.BufferedItems != int64(fid-99) {
				t.Fatalf("member %d's LastStats after event %d: %s", i, fid, s.String())
			}
		}
	}
	close(stop)
	wg.Wait()

	before := queries[1].LastStats()
	r.Apply(nil) // nothing is dirty: the advance costs no handler run
	if s := queries[1].LastStats(); s.HandlerInvocations != 0 || s.Plan != "QaC++inc" {
		t.Fatalf("LastStats after an idle advance: %s", s.String())
	}
	if before.HandlerInvocations != 1 {
		t.Fatalf("a snapshot taken before the next arrival changed under it: %s", before.String())
	}
	if got := r.Groups()[0].Stats.HandlerInvocations; got != 40 {
		t.Fatalf("the group counted %d handler runs over 40 events", got)
	}
}

// creditCharges is the credit stream of three accounts with charges
// cycling over them: the initial document, then each charge's
// re-announcement and transaction.
func creditCharges(charges int) (*tagstruct.Structure, []*fragment.Fragment) {
	pub, frags := genstore.NewCreditPublisher(3)
	for i := 1; i <= charges; i++ {
		announce, tx := pub.Charge(i%3, 10*i, genstore.CreditBase.Add(time.Duration(i)*time.Minute))
		frags = append(frags, announce, tx)
	}
	return tagstruct.MustParseString(genstore.CreditStructure), frags
}

// replayCredit replays frags through a fresh registry over a fresh store
// holding one registration of src per mode, all under lim, and returns
// per registration what each arrival delivered (the delta's serials, or
// the degradation) and, per arrival, the steps the last mode's advance
// counted.
func replayCredit(t *testing.T, structure *tagstruct.Structure, frags []*fragment.Fragment, src string, lim xcql.Limits, modes ...xcql.Mode) ([][]string, []int64, *Registry, []*Registration) {
	t.Helper()
	st := fragment.NewStore(structure)
	rt := xcql.NewRuntime()
	rt.RegisterStream("s", st)
	at := genstore.CreditBase
	r := New(func() time.Time { return at })
	traces := make([][]string, len(modes))
	regs := make([]*Registration, len(modes))
	var q *xcql.Query
	for i, mode := range modes {
		q = rt.MustCompile(src, mode)
		reg, err := r.Register(q, Options{Limits: lim, OnResult: func(res Result) {
			d := strings.Join(res.Serials, "")
			if res.Degraded != "" || res.Err != nil {
				d = fmt.Sprintf("!%s %v", res.Degraded, res.Err)
			}
			traces[i] = append(traces[i], d)
		}})
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}
	var steps []int64
	for _, f := range frags {
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
		at = f.ValidTime
		r.Apply(f)
		steps = append(steps, q.LastStats().Steps)
	}
	return traces, steps, r, regs
}

// A QaC unit and a QaC+ unit that evaluate the same body are not the same
// unit: QaC's scan read charges a budget step per hole it crosses, QaC+'s
// index read none, so under a step limit QaC trips where QaC+ does not.
// The unit signature names the plan, and a QaC+ registration beside a QaC
// one of the same query, under a limit that only QaC's reads exceed,
// delivers exactly what it delivers alone.
func TestPlansPartUnits(t *testing.T) {
	structure, frags := creditCharges(12)
	// child steps only: QaC and QaC+ translate it alike
	const src = `stream("s")/creditAccounts/account/transaction`
	// the most an index read of this stream ever costs: QaC+ never trips
	_, indexSteps, _, _ := replayCredit(t, structure, frags, src, xcql.Limits{}, xcql.QaCPlus)
	lim := xcql.Limits{MaxSteps: slices.Max(indexSteps)}

	scanAlone, _, _, _ := replayCredit(t, structure, frags, src, lim, xcql.QaC)
	indexAlone, _, _, _ := replayCredit(t, structure, frags, src, lim, xcql.QaCPlus)
	if !slices.ContainsFunc(scanAlone[0], func(d string) bool { return strings.HasPrefix(d, "!") }) {
		t.Fatalf("QaC never trips MaxSteps=%d: the case tests nothing", lim.MaxSteps)
	}
	if slices.ContainsFunc(indexAlone[0], func(d string) bool { return strings.HasPrefix(d, "!") }) {
		t.Fatalf("QaC+ trips MaxSteps=%d alone: %q", lim.MaxSteps, indexAlone[0])
	}
	// QaC registers first, so its unit evaluates first
	both, _, r, regs := replayCredit(t, structure, frags, src, lim, xcql.QaC, xcql.QaCPlus)
	if got := r.Stats().Groups; got != 1 {
		t.Fatalf("%d groups, want the two plans in one", got)
	}
	scanSigs, indexSigs := regs[0].sigs, regs[1].sigs
	if len(scanSigs) != 1 || strings.Replace(scanSigs[0], "|QaC|", "|QaC+|", 1) != indexSigs[0] || scanSigs[0] == indexSigs[0] {
		t.Fatalf("signatures %q and %q: want one body, apart only in the plan", scanSigs, indexSigs)
	}
	for i, alone := range [][]string{scanAlone[0], indexAlone[0]} {
		if !slices.Equal(both[i], alone) {
			t.Errorf("registration %d beside the other plan delivered\n%q\nalone\n%q", i, both[i], alone)
		}
	}
}

// Registrations under different limits never share: the limits are part of
// the sharing scope, and one budget's trip is not another's.
func TestDifferentLimitsNeverShare(t *testing.T) {
	structure, frags := creditCharges(6)
	st := fragment.NewStore(structure)
	rt := xcql.NewRuntime()
	rt.RegisterStream("s", st)
	r := New(func() time.Time { return genstore.CreditBase.Add(time.Hour) })
	for _, steps := range []int64{1 << 40, 1 << 41} {
		q := rt.MustCompile(`for $t in stream("s")//transaction return $t`, xcql.QaCPlus)
		if _, err := r.Register(q, Options{Limits: xcql.Limits{MaxSteps: steps}, OnResult: func(Result) {}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range frags {
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
		r.Apply(f)
	}
	groups := r.Groups()
	if len(groups) != 2 {
		t.Fatalf("%d groups, want one per limit: %+v", len(groups), groups)
	}
	for _, g := range groups {
		if g.Members != 1 || g.SharedSaved != 0 || g.Stats.SharedUnitHits != 0 {
			t.Errorf("group %q shared work across limits: %+v", g.Key, g)
		}
		if !strings.HasPrefix(g.Key, "s {MaxSteps:") {
			t.Errorf("group key %q does not name the stream and the limits", g.Key)
		}
	}
}
