package fragment

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/xmldom"
)

func renderEls(els []*xmldom.Node) string {
	parts := make([]string, len(els))
	for i, el := range els {
		parts[i] = el.String()
	}
	return strings.Join(parts, "\n")
}

// coalesceStore builds a store holding three distinct versions of filler
// 2 plus dup duplicates of each.
func coalesceStore(t *testing.T, scan bool, dup int) *Store {
	t.Helper()
	s := creditStruct(t)
	var st *Store
	if scan {
		st = NewScanStore(s)
	} else {
		st = NewStore(s)
	}
	root := xmldom.MustParseString(`<creditAccounts><hole id="1" tsid="2"/></creditAccounts>`).Root()
	if err := st.Add(New(RootFillerID, 1, ts("2003-01-01T00:00:00"), root)); err != nil {
		t.Fatal(err)
	}
	acct := xmldom.MustParseString(`<account id="1"><customer>A</customer><hole id="2" tsid="4"/></account>`).Root()
	if err := st.Add(New(1, 2, ts("2003-01-01T00:00:00"), acct)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		at := ts("2003-02-01T00:00:00").Add(time.Duration(i) * time.Hour)
		for d := 0; d <= dup; d++ {
			limit := xmldom.TextElem("creditLimit", fmt.Sprintf("%d", i*1000))
			if err := st.Add(New(2, 4, at, limit)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func TestCoalesceRemovesExactDuplicates(t *testing.T) {
	for _, scan := range []bool{false, true} {
		name := "indexed"
		if scan {
			name = "scan"
		}
		t.Run(name, func(t *testing.T) {
			st := coalesceStore(t, scan, 2) // 3 distinct + 6 duplicates
			at := ts("2004-01-01T00:00:00")
			// duplicates annotate as degenerate zero-width windows; the
			// coalesced store must render exactly like one that never saw
			// them
			wantClean := renderEls(coalesceStore(t, scan, 0).GetFillers(2, at))
			genBefore := st.Generation()

			removed := st.Coalesce()
			if removed != 6 {
				t.Fatalf("removed %d duplicates, want 6", removed)
			}
			if st.Generation() != genBefore+1 {
				t.Fatalf("generation %d after coalesce, want %d", st.Generation(), genBefore+1)
			}
			if got := renderEls(st.GetFillers(2, at)); got != wantClean {
				t.Fatalf("coalesce output differs from a never-duplicated store:\n got %s\nwant %s", got, wantClean)
			}
			if got := len(st.Versions(2)); got != 3 {
				t.Fatalf("versions after coalesce = %d, want 3", got)
			}
			if _, got := st.TSIDFillers(4); got != 3 {
				t.Fatalf("versions under tsid 4 after coalesce = %d, want 3", got)
			}

			// a no-op pass must not advance the generation: it would
			// invalidate every warm cache entry for nothing
			gen := st.Generation()
			if again := st.Coalesce(); again != 0 {
				t.Fatalf("second coalesce removed %d", again)
			}
			if st.Generation() != gen {
				t.Fatal("no-op coalesce advanced the generation")
			}
		})
	}
}

func TestCoalesceKeepsDistinctPayloadsAtSameInstant(t *testing.T) {
	st := coalesceStore(t, false, 0)
	// same filler, same validTime, different payload: a legitimate pair
	// of same-instant versions, not duplicates
	at := ts("2003-03-01T00:00:00")
	for _, v := range []string{"111", "222"} {
		if err := st.Add(New(2, 4, at, xmldom.TextElem("creditLimit", v))); err != nil {
			t.Fatal(err)
		}
	}
	if removed := st.Coalesce(); removed != 0 {
		t.Fatalf("coalesce removed %d distinct-payload versions", removed)
	}
}

// TestCoalesceCacheRace is the satellite race test: coalescing runs
// concurrently with cached reads, fresh ingest, and LRU eviction
// pressure, and no cached hand-out may ever observe a half-compacted
// window. The store holds duplicated versions, so at the probed instant
// exactly two renderings are consistent: the duplicated one (duplicate
// versions annotate as degenerate zero-width windows) and the coalesced
// one. The concurrent writer only adds versions dated after the probe
// instant — invisible to it — so every hand-out must be one of those
// two complete renderings; any torn intermediate (index rebuilt but log
// not, generation advanced outside the lock) renders as neither. Run
// under -race to also validate the locking.
func TestCoalesceCacheRace(t *testing.T) {
	st := coalesceStore(t, false, 1)
	at := ts("2004-01-01T00:00:00")
	wantDup := renderEls(st.GetFillers(2, at))
	wantClean := renderEls(coalesceStore(t, false, 0).GetFillers(2, at))
	if wantDup == wantClean {
		t.Fatal("test setup broken: duplicated and coalesced renderings must differ")
	}
	cache := NewCache(2) // tiny: eviction pressure alongside coalescing

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// ingest: distinct future-dated versions churn the generation (and
	// the cache) without changing what the probe instant sees
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vt := ts("2005-01-01T00:00:00").Add(time.Duration(i) * time.Second)
			limit := xmldom.TextElem("creditLimit", fmt.Sprintf("%d", 9000+i))
			if err := st.Add(New(2, 4, vt, limit)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// compactor: coalesce in a tight loop
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st.Coalesce()
			}
		}
	}()

	// readers: every cached hand-out must be one of the two consistent
	// renderings, never a mixture
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				els, _ := cache.GetFillers(st, 2, at)
				if got := renderEls(els); got != wantDup && got != wantClean {
					t.Errorf("cached hand-out observed a half-compacted window:\n got %s", got)
					return
				}
				// churn a second key so the 2-entry LRU evicts
				_, _ = cache.GetFillers(st, 1, at)
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// settle: a final coalesce must land on exactly the clean rendering
	st.Coalesce()
	if got := renderEls(st.GetFillers(2, at)); got != wantClean {
		t.Fatalf("settled output differs:\n got %s\nwant %s", got, wantClean)
	}
}

func TestCompactorRunsStepsAndReportsErrors(t *testing.T) {
	var aRuns, bRuns int
	boom := errors.New("boom")
	var seen []error
	c := NewCompactor(0,
		func() error { aRuns++; return nil },
		func() error { bRuns++; return boom },
	)
	c.OnError(func(err error) { seen = append(seen, err) })
	c.Start() // interval <= 0: manual only, Start is a no-op
	if err := c.RunOnce(); !errors.Is(err, boom) {
		t.Fatalf("RunOnce error = %v, want boom", err)
	}
	if aRuns != 1 || bRuns != 1 || len(seen) != 1 {
		t.Fatalf("steps ran a=%d b=%d observed=%d", aRuns, bRuns, len(seen))
	}
	runs, errs := c.Runs()
	if runs != 1 || errs != 1 {
		t.Fatalf("runs=%d errs=%d", runs, errs)
	}
	c.Stop() // stopping an unstarted compactor is a no-op
}

func TestCompactorBackgroundLoop(t *testing.T) {
	var mu sync.Mutex
	n := 0
	c := NewCompactor(time.Millisecond, func() error {
		mu.Lock()
		n++
		mu.Unlock()
		return nil
	})
	c.Start()
	c.Start() // double start is a no-op
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		ran := n
		mu.Unlock()
		if ran >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background compactor never ran")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	runs, _ := c.Runs()
	if runs < 3 {
		t.Fatalf("runs = %d, want >= 3", runs)
	}
	// after Stop no further runs happen
	mu.Lock()
	after := n
	mu.Unlock()
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	final := n
	mu.Unlock()
	if final != after {
		t.Fatal("compactor kept running after Stop")
	}
}
