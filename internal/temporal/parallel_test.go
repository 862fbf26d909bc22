package temporal

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
)

// assertWorkersExited polls until the goroutine count is back at the
// baseline (small tolerance for runtime housekeeping), dumping stacks on
// failure so a stuck worker is identifiable.
func assertWorkersExited(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("worker leak: %d goroutines running, baseline %d\n%s", n, baseline, buf)
}

// TestParallelTemporalizeMatchesSequential: parallel reconstruction must
// be byte-identical to sequential on generated multi-level histories,
// and the cost counters shared with sequential execution must agree
// exactly (ParallelTasks and the wait histogram are the only additions).
func TestParallelTemporalizeMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ins, err := genstore.Generate(genstore.Profile{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ins.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		at := genstore.Base.Add(100 * time.Hour)
		seqStats := &obs.EvalStats{}
		seqView, err := TemporalizeWith(st, at, TemporalizeOptions{Stats: seqStats})
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		parStats := &obs.EvalStats{}
		parView, err := TemporalizeWith(st, at, TemporalizeOptions{
			Stats: parStats, Parallelism: 4, Wait: obs.NewHistogram(),
		})
		if err != nil {
			t.Fatalf("seed %d: parallel: %v", seed, err)
		}
		if seqView.String() != parView.String() {
			t.Fatalf("seed %d: parallel view differs from sequential", seed)
		}
		if seqStats.FillersScanned != parStats.FillersScanned ||
			seqStats.HolesResolved != parStats.HolesResolved ||
			seqStats.NodesConstructed != parStats.NodesConstructed {
			t.Fatalf("seed %d: counters diverged\nseq: %s\npar: %s", seed, seqStats, parStats)
		}
		if parStats.HolesResolved > 0 && parStats.ParallelTasks == 0 {
			t.Fatalf("seed %d: parallel run recorded no pool tasks", seed)
		}
	}
}

// TestParallelBudgetAccountingExact: the budget is charged identically
// by sequential and parallel reconstruction — same steps, same items,
// same bytes — because phase A charges each hole exactly once and phase
// B is the unchanged sequential walk.
func TestParallelBudgetAccountingExact(t *testing.T) {
	ins, err := genstore.Generate(genstore.Profile{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ins.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	at := genstore.Base.Add(100 * time.Hour)
	run := func(parallelism int) (steps, items, bytes int64) {
		b := budget.New(context.Background(), budget.Limits{})
		opts := TemporalizeOptions{Budget: b, Parallelism: parallelism}
		if _, err := TemporalizeWith(st, at, opts); err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return b.Used()
	}
	s1, i1, b1 := run(1)
	s4, i4, b4 := run(4)
	if s1 != s4 || i1 != i4 || b1 != b4 {
		t.Fatalf("budget accounting diverged: sequential steps=%d items=%d bytes=%d, parallel steps=%d items=%d bytes=%d",
			s1, i1, b1, s4, i4, b4)
	}
}

// TestPoolCancelMidFanout: a budget trip inside one worker mid-fan-out
// must cancel the whole pool — the ResourceError re-raises on the
// caller (surfacing as TemporalizeWith's error) and every worker exits.
func TestPoolCancelMidFanout(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ins, err := genstore.Generate(genstore.Profile{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ins.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	at := genstore.Base.Add(100 * time.Hour)
	// find the unconstrained cost, then set a budget that trips partway
	full := budget.New(context.Background(), budget.Limits{})
	if _, err := TemporalizeWith(st, at, TemporalizeOptions{Budget: full}); err != nil {
		t.Fatal(err)
	}
	steps, _, _ := full.Used()
	if steps < 4 {
		t.Skipf("history too small to trip mid-flight (%d steps)", steps)
	}
	for trip := int64(1); trip < steps; trip += steps / 4 {
		b := budget.New(context.Background(), budget.Limits{MaxSteps: trip})
		_, err := TemporalizeWith(st, at, TemporalizeOptions{Budget: b, Parallelism: 4})
		var re *budget.ResourceError
		if !errors.As(err, &re) {
			t.Fatalf("trip at %d steps: want *budget.ResourceError, got %v", trip, err)
		}
		if re.Limit != budget.LimitSteps {
			t.Fatalf("trip at %d steps: tripped %v, want steps", trip, re.Limit)
		}
	}
	assertWorkersExited(t, baseline)
}

// TestPoolPanicPropagatesAndDrains: an arbitrary resolver panic (not a
// budget trip) must also cancel the fan-out, re-raise on the caller and
// leave no workers behind — the pool must never swallow a bug.
func TestPoolPanicPropagatesAndDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := fmt.Errorf("resolver bug")
	var calls atomic.Int64
	resolve := func(id int) []*xmldom.Node {
		if calls.Add(1) == 7 {
			panic(boom)
		}
		return nil
	}
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i + 1
	}
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the resolver's panic value", r)
			}
		}()
		fragment.ResolveIDs(ids, resolve, 4, nil, nil)
		t.Fatalf("ResolveIDs returned instead of panicking")
	}()
	assertWorkersExited(t, baseline)
}

// TestPoolGoroutineLeak: repeated fan-outs — completing and aborting —
// must leave the goroutine count where it started.
func TestPoolGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ids := make([]int, 32)
	for i := range ids {
		ids[i] = i + 1
	}
	for round := 0; round < 50; round++ {
		memo := fragment.ResolveIDs(ids, func(id int) []*xmldom.Node { return nil }, 4, obs.NewHistogram(), &obs.EvalStats{})
		if len(memo) != len(ids) {
			t.Fatalf("round %d: memo holds %d ids, want %d", round, len(memo), len(ids))
		}
		func() {
			defer func() { recover() }()
			fragment.ResolveIDs(ids, func(id int) []*xmldom.Node {
				if id == 9 {
					panic("abort")
				}
				return nil
			}, 4, nil, nil)
		}()
	}
	assertWorkersExited(t, baseline)
}

// TestResolveIDsExactTaskCount: every id is resolved exactly once and
// the stats count exactly one pool task per id — no duplicated or lost
// work under contention.
func TestResolveIDsExactTaskCount(t *testing.T) {
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = i + 1
	}
	var calls atomic.Int64
	stats := &obs.EvalStats{}
	memo := fragment.ResolveIDs(ids, func(id int) []*xmldom.Node {
		calls.Add(1)
		return []*xmldom.Node{xmldom.NewElement(fmt.Sprintf("e%d", id))}
	}, 8, nil, stats)
	if got := calls.Load(); got != int64(len(ids)) {
		t.Fatalf("resolver ran %d times, want %d", got, len(ids))
	}
	if stats.ParallelTasks != int64(len(ids)) {
		t.Fatalf("ParallelTasks=%d, want %d", stats.ParallelTasks, len(ids))
	}
	for _, id := range ids {
		els, ok := memo[id]
		if !ok || len(els) != 1 || els[0].Name != fmt.Sprintf("e%d", id) {
			t.Fatalf("memo[%d] wrong: %v", id, els)
		}
	}
}
