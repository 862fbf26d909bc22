package xcql

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"xcql/internal/budget"
	"xcql/internal/xmark"
	"xcql/internal/xq"
)

// The limit-parity suite: the same over-budget query must fail with the
// same typed error — identifying the same tripped limit — under all
// three physical plans, and the engine must remain fully usable after
// each governed kill.
func TestLimitParityAcrossPlans(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		lim   Limits
		limit string
	}{
		{
			name:  "depth/runaway recursion",
			src:   `declare function boom($x) { boom($x + 1) }; boom(0)`,
			lim:   Limits{MaxDepth: 32},
			limit: budget.LimitDepth,
		},
		{
			name:  "steps/nested cross join",
			src:   `for $a in stream("credit")//* for $b in stream("credit")//* for $c in stream("credit")//* return $a`,
			lim:   Limits{MaxSteps: 2000},
			limit: budget.LimitSteps,
		},
		{
			name:  "items/cartesian blowup",
			src:   `for $a in stream("credit")//* for $b in stream("credit")//* return $b`,
			lim:   Limits{MaxItems: 200},
			limit: budget.LimitItems,
		},
		{
			name:  "bytes/bulk materialization",
			src:   `for $t in stream("credit")//transaction return $t`,
			lim:   Limits{MaxBytes: 64},
			limit: budget.LimitBytes,
		},
		{
			name:  "timeout/expired deadline",
			src:   `for $a in stream("credit")//* for $b in stream("credit")//* for $c in stream("credit")//* return $a`,
			lim:   Limits{Timeout: time.Nanosecond},
			limit: budget.LimitTimeout,
		},
	}
	rt := newRuntime(t)
	const probe = `for $t in stream("credit")//transaction return string($t/vendor)`
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range allModes {
				q, err := rt.Compile(tc.src, mode)
				if err != nil {
					t.Fatalf("%s compile: %v", mode, err)
				}
				_, err = q.EvalLimits(context.Background(), evalAt, tc.lim)
				if err == nil {
					t.Fatalf("%s: want %s limit trip, got success", mode, tc.limit)
				}
				var ee *EvalError
				if !errors.As(err, &ee) {
					t.Fatalf("%s: want *EvalError, got %T: %v", mode, err, err)
				}
				if ee.Stack != nil {
					t.Fatalf("%s: governed kill must not record a panic stack:\n%s", mode, ee.Stack)
				}
				re, ok := ResourceCause(err)
				if !ok {
					t.Fatalf("%s: want resource cause, got %v", mode, err)
				}
				if re.Limit != tc.limit {
					t.Fatalf("%s: want tripped limit %q, got %q (%v)", mode, tc.limit, re.Limit, re)
				}

				// The engine survives the kill: the same compiled plan kind
				// answers an ordinary query immediately afterwards.
				pq, err := rt.Compile(probe, mode)
				if err != nil {
					t.Fatalf("%s probe compile: %v", mode, err)
				}
				seq, err := pq.Eval(evalAt)
				if err != nil {
					t.Fatalf("%s: engine unusable after %s kill: %v", mode, tc.limit, err)
				}
				if len(seq) != 3 {
					t.Fatalf("%s: probe after %s kill returned %d items, want 3", mode, tc.limit, len(seq))
				}
			}
		})
	}
	t.Run("Q2 on the indexed XMark store", limitParityQ2)
}

// limitParityQ2: XMark Q2 on the indexed store trips the same limit under
// every plan, and under QaC+, which reads every open auction's
// bidders at once and charge each auction's when its return takes them, at
// the same point: what the budget had counted when it tripped is pinned
// from the engine that read each auction's bidders with a call of its own.
func limitParityQ2(t *testing.T) {
	rt := xmarkRuntime(t)
	for _, tc := range []struct {
		name   string
		lim    Limits
		cancel bool
		limit  string
		used   string // steps/items/bytes counted at the trip under QaC+
	}{
		{"items", Limits{MaxItems: 600}, false, budget.LimitItems, "532/601/557986"},
		{"steps", Limits{MaxSteps: 800}, false, budget.LimitSteps, "801/791/580820"},
		{"bytes", Limits{MaxBytes: 600000}, false, budget.LimitBytes, "1022/949/600046"},
		{"canceled", Limits{}, true, budget.LimitCanceled, "1/0/0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range allModes {
				q, err := rt.Compile(xmark.QueryQ2(), mode)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				if tc.cancel {
					cancel()
				}
				_, err = q.EvalLimits(ctx, evalAt, tc.lim)
				cancel()
				var ee *EvalError
				if !errors.As(err, &ee) || ee.Stack != nil {
					t.Fatalf("%s: want a governed *EvalError, got %v", mode, err)
				}
				if re, ok := ResourceCause(err); !ok || re.Limit != tc.limit {
					t.Fatalf("%s: want tripped limit %q, got %v", mode, tc.limit, err)
				}
				if mode != QaCPlus {
					continue
				}
				s := q.LastStats()
				if got := fmt.Sprintf("%d/%d/%d", s.Steps, s.Items, s.BytesMaterialized); got != tc.used {
					t.Errorf("%s: tripped at %s, pinned %s", mode, got, tc.used)
				}
			}
		})
	}
}

// A query's persistent Limits field governs every Eval of that query.
func TestQueryLimitsField(t *testing.T) {
	rt := newRuntime(t)
	q, err := rt.Compile(`for $a in stream("credit")//* for $b in stream("credit")//* return $b`, QaCPlus)
	if err != nil {
		t.Fatal(err)
	}
	q.Limits = Limits{MaxItems: 100}
	_, err = q.Eval(evalAt)
	re, ok := ResourceCause(err)
	if !ok {
		t.Fatalf("want resource cause, got %v", err)
	}
	if re.Limit != budget.LimitItems {
		t.Fatalf("want items trip, got %q", re.Limit)
	}
}

// Cancellation propagates through EvalContext and unwraps to
// context.Canceled.
func TestEvalContextCancellation(t *testing.T) {
	rt := newRuntime(t)
	for _, mode := range allModes {
		q, err := rt.Compile(`for $a in stream("credit")//* for $b in stream("credit")//* return $b`, mode)
		if err != nil {
			t.Fatalf("%s compile: %v", mode, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = q.EvalContext(ctx, evalAt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want errors.Is(err, context.Canceled), got %v", mode, err)
		}
		re, ok := ResourceCause(err)
		if !ok || re.Limit != budget.LimitCanceled {
			t.Fatalf("%s: want canceled resource cause, got %v", mode, err)
		}
	}
}

// Generous limits change nothing: all three plans still agree with the
// unbudgeted result.
func TestGenerousLimitsPreserveResults(t *testing.T) {
	rt := newRuntime(t)
	const src = `for $t in stream("credit")//transaction where number($t/amount) > 1000 return string($t/vendor)`
	want := evalAll(t, rt, src)
	lim := Limits{MaxSteps: 1 << 20, MaxItems: 1 << 20, MaxBytes: 1 << 26, MaxDepth: 100, Timeout: time.Minute}
	for _, mode := range allModes {
		q, err := rt.Compile(src, mode)
		if err != nil {
			t.Fatalf("%s compile: %v", mode, err)
		}
		seq, err := q.EvalLimits(context.Background(), evalAt, lim)
		if err != nil {
			t.Fatalf("%s budgeted eval: %v", mode, err)
		}
		got := renderSeq(seq)
		if len(got) != len(want) {
			t.Fatalf("%s: budgeted result diverged: %v vs %v", mode, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: budgeted result diverged at %d: %v vs %v", mode, i, got, want)
			}
		}
	}
}

// Admission control: with one evaluation slot taken, the next is
// rejected with a typed *OverloadError, and slots free on completion.
func TestAdmissionControl(t *testing.T) {
	rt := newRuntime(t)
	rt.SetMaxConcurrentEvals(1)

	release := make(chan struct{})
	entered := make(chan struct{})
	rt.RegisterFunc("block", func(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
		close(entered)
		<-release
		return xq.Singleton("done"), nil
	})

	q, err := rt.Compile(`block()`, QaCPlus)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := q.Eval(evalAt)
		done <- err
	}()
	<-entered

	q2, err := rt.Compile(`1 + 1`, QaCPlus)
	if err != nil {
		t.Fatal(err)
	}
	_, err = q2.Eval(evalAt)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverloadError while slot held, got %v", err)
	}
	if oe.Active != 1 || oe.Max != 1 {
		t.Fatalf("want Active=1 Max=1, got %+v", oe)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked eval failed: %v", err)
	}
	// Slot released: evaluations are admitted again.
	if _, err := q2.Eval(evalAt); err != nil {
		t.Fatalf("eval after release: %v", err)
	}
	if n := rt.ActiveEvals(); n != 0 {
		t.Fatalf("want 0 active evals, got %d", n)
	}
}
