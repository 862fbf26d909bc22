package xcql_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/evalbench"
	"xcql/internal/registry"
	ixcql "xcql/internal/xcql"
	"xcql/internal/xmark"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// renderItems is a result as text, item by item.
func renderItems(seq xq.Sequence) string {
	var b strings.Builder
	for _, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			b.WriteString(n.String())
		} else {
			fmt.Fprint(&b, it)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// An evaluation's scratch is recycled across evaluations (DESIGN.md "What
// an evaluation allocates"), never shared by two at once, and nothing of it
// becomes part of a result: goroutines evaluate one cached plan each at
// instants of their own, every result equals the sequential evaluation's
// at its instant, and a result held from one evaluation is unchanged after
// the evaluation that follows it on the same goroutine. The plans include
// for clauses whose sequences are lent of the scratch — returned whole, one
// nested in another's return, rebound by a let, ordered over what the
// clause read ahead —, which a result must never hold. Under the race
// detector (make race) two evaluations writing one buffer is a reported
// race.
func TestScratchIsOneEvaluations(t *testing.T) {
	ds, err := evalbench.Build(0.005, false)
	if err != nil {
		t.Fatal(err)
	}
	credit := newCreditHistory(t, 120, 10*time.Second)
	crt := ixcql.NewRuntime()
	crt.RegisterStream("credit", credit.st)
	type plan struct {
		name string
		rt   *ixcql.Runtime
		src  string
		at   []time.Time
	}
	var xmarkAt, creditAt []time.Time
	for k := range 4 {
		xmarkAt = append(xmarkAt, evalbench.EvalInstant.Add(-time.Duration(k)*90*24*time.Hour))
		creditAt = append(creditAt, credit.at.Add(-time.Duration(k)*4*time.Minute))
	}
	for _, p := range []plan{
		{"Q2", ds.Runtime, xmark.QueryQ2(), xmarkAt},
		{"QD", ds.Runtime, `for $c in stream("auction")//closed_auction return $c/price`, xmarkAt},
		{"for returned whole", ds.Runtime, `for $x in stream("auction")//closed_auction return $x`, xmarkAt},
		{"nested for", ds.Runtime, `for $a in stream("auction")/site/open_auctions/open_auction return for $b in $a/bidder return $b/increase/text()`, xmarkAt},
		{"let of the for variable", ds.Runtime, `for $c in stream("auction")//closed_auction let $d := $c return $d/price`, xmarkAt},
		{"order by over a read ahead", ds.Runtime, `for $a in stream("auction")/site/open_auctions/open_auction order by $a/bidder[1]/increase descending return <i>{$a/bidder[1]/increase/text()}</i>`, xmarkAt},
		{"window", crt, `stream("credit")//transaction?[now-PT20M,now]`, creditAt},
	} {
		q, err := p.rt.Compile(p.src, ixcql.QaCPlus)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want := make([]string, len(p.at))
		for i, at := range p.at {
			seq, err := q.Eval(at)
			if err != nil {
				t.Fatalf("%s at %s: %v", p.name, at, err)
			}
			if want[i] = renderItems(seq); len(seq) == 0 {
				t.Fatalf("%s at %s: no items", p.name, at)
			}
		}
		const goroutines, rounds = 4, 6
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// each goroutine compiles the text anew: a plan-cache hit,
				// one plan shared by every goroutine
				q, err := p.rt.Compile(p.src, ixcql.QaCPlus)
				if err != nil {
					errs <- err
					return
				}
				var held xq.Sequence
				heldAt := -1
				for r := range rounds {
					i := (g + r) % len(p.at)
					seq, err := q.Eval(p.at[i])
					if err != nil {
						errs <- err
						return
					}
					if got := renderItems(seq); got != want[i] {
						errs <- fmt.Errorf("%s at %s on goroutine %d: %d bytes, want the sequential %d", p.name, p.at[i], g, len(got), len(want[i]))
						return
					}
					if heldAt >= 0 && renderItems(held) != want[heldAt] {
						errs <- fmt.Errorf("%s: the result held from the evaluation at %s changed under the next one", p.name, p.at[heldAt])
						return
					}
					held, heldAt = seq, i
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// A standing query's unit evaluations take their scratch of the same
// runtime as ad hoc evaluations: the fraud registration over the credit
// stream emits the same results with ad hoc reads of its store running
// beside it as it does alone.
func TestStandingScratchBesideAdHocReads(t *testing.T) {
	standing := func(besides bool) []string {
		cs := newCreditHistory(t, 60, 10*time.Second)
		rt := ixcql.NewRuntime()
		rt.RegisterStream("credit", cs.st)
		var err error
		if cs.q, err = rt.Compile(creditQueries[2].src, ixcql.QaCPlus); err != nil {
			t.Fatal(err)
		}
		var results []string
		cs.r = registry.New(func() time.Time { return cs.at })
		if cs.reg, err = cs.r.Register(cs.q, registry.Options{OnResult: func(res registry.Result) {
			cs.err = res.Err
			results = append(results, res.At.Format(time.RFC3339)+" "+renderItems(res.Delta))
		}}); err != nil {
			t.Fatal(err)
		}
		if cs.r.Evaluate(); cs.err != nil {
			t.Fatal(cs.err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if besides {
			// the reads pin an instant before every arrival
			q, err := rt.Compile(`stream("credit")//transaction?[now-PT30M,now]`, ixcql.QaCPlus)
			if err != nil {
				t.Fatal(err)
			}
			at := cs.at
			seq, err := q.Eval(at)
			if err != nil || len(seq) == 0 {
				t.Fatalf("the ad hoc read: %v, %d items", err, len(seq))
			}
			want := renderItems(seq)
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if seq, err := q.Eval(at); err != nil || renderItems(seq) != want {
							t.Errorf("an ad hoc read beside the registration: %v, %d items", err, len(seq))
							return
						}
					}
				}()
			}
		}
		for _, charge := range cs.charges(40) {
			if err := cs.arrive(charge); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
		wg.Wait()
		return results
	}
	alone, besides := standing(false), standing(true)
	if len(alone) == 0 {
		t.Fatal("the registration emitted nothing")
	}
	if strings.Join(alone, "\n") != strings.Join(besides, "\n") {
		t.Errorf("the fraud registration emits %d results beside ad hoc reads, %d alone, or different ones:\n%s\nalone:\n%s",
			len(besides), len(alone), strings.Join(besides, "\n"), strings.Join(alone, "\n"))
	}
}
