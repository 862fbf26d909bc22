package xcql

import (
	"context"
	"errors"
	"testing"
	"time"

	"xcql/internal/budget"
)

// FuzzCompile shakes the whole query path: arbitrary source text is
// compiled under all three plans, and whatever compiles is evaluated
// over the running-example store under a tight budget. The contract
// under fuzz input is "typed error or result, never a panic": the engine
// boundary must absorb evaluator panics (EvalError.Stack set means an
// internal bug escaped), and the budget must bound any accidentally
// expensive query the fuzzer synthesizes. Every plan that compiles is
// explained too.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		`1 + 2 * 3`,
		`for $t in stream("credit")//transaction return $t`,
		`for $a in stream("credit")//account where number($a/creditLimit) > 1000 return string($a/customer)`,
		`stream("credit")//account?[2001-01-01T00:00:00,2002-01-01T00:00:00]`,
		`stream("credit")//creditLimit#[1,last]`,
		`for $t in stream("credit")//transaction return <hit>{$t/vendor}</hit>`,
		`declare function f($x) { if ($x = 0) then 0 else f($x - 1) }; f(3)`,
		`declare function boom($x) { boom($x + 1) }; boom(0)`,
		`stream("credit")//status?[start,now]`,
		// descendant step straight off the stream: the shape the index
		// plans compile to a by-tsid fetch (FnByTSID)
		`for $s in stream("credit")//status return $s`,
		// predicates the translator pushes below the access path (an
		// attribute or an inline child against a literal of each class,
		// conjoined, in a where) and ones it must not (a lifespan
		// attribute, a child behind a hole, positions, a disjunction, a
		// predicate on a projection's output)
		`stream("credit")//transaction[@id = "12345"]`,
		`stream("credit")//transaction[@id != 12345 and amount < 1000]`,
		`stream("credit")/creditAccounts/account[customer = " Jane Doe "]`,
		`for $t in stream("credit")//transaction where $t/amount >= 1200 and 2003-01-01T00:00:00 < $t/@id return $t/vendor`,
		`stream("credit")//transaction[@vtFrom > "2003-10-01T00:00:00"][@vtTo = "now"]`,
		`stream("credit")//transaction[status = "charged"][1]`,
		`stream("credit")//transaction[position() = 2 or last()]`,
		`stream("credit")//transaction?[2003-11-01T00:00:00,now][amount > 100]`,
		// positions on a child step over several parents: counted per
		// parent, the leading one a read window where it can be
		`stream("credit")/creditAccounts/account/transaction[1]`,
		`stream("credit")/creditAccounts/account/transaction[last()][amount > 100]`,
		`stream("credit")/creditAccounts/account/transaction[amount > 100][position() <= 2]`,
		`stream("credit")/creditAccounts/account/transaction[position() < 2]/status[1]`,
		`stream("credit")/creditAccounts/account/customer[last() - 1 + 1]`,
		`get_fillers(1)`,
		`((((`,
		`for $x in`,
		`"unterminated`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	rt := newRuntime(f)
	lim := Limits{
		MaxSteps: 50000,
		MaxDepth: 64,
		MaxItems: 10000,
		MaxBytes: 1 << 20,
		Timeout:  2 * time.Second,
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		for _, mode := range allModes {
			q, err := rt.Compile(src, mode)
			if err != nil {
				continue // rejecting garbage is fine; crashing is not
			}
			// EXPLAIN reads every access call of the plan: one left
			// half-built panics here
			_ = q.Explain().String()
			_, err = q.EvalLimits(context.Background(), evalAt, lim)
			if err == nil {
				continue
			}
			var ee *EvalError
			if errors.As(err, &ee) && ee.Stack != nil {
				t.Fatalf("%s: evaluator panicked on %q:\n%v\n%s", mode, src, ee.Err, ee.Stack)
			}
			// Resource trips must carry a known limit kind.
			if re, ok := ResourceCause(err); ok {
				switch re.Limit {
				case budget.LimitSteps, budget.LimitDepth, budget.LimitItems,
					budget.LimitBytes, budget.LimitTimeout, budget.LimitCanceled:
				default:
					t.Fatalf("%s: unknown limit kind %q on %q", mode, re.Limit, src)
				}
			}
		}
	})
}
