// Package budget implements per-evaluation resource governance for the
// query engine: cooperative cancellation, step/cardinality/memory
// budgets, and a recursion-depth guard. One Budget governs one
// evaluation; it is threaded through the evaluator, the physical plans'
// store walks and the temporal reconstruction layer, each of which
// charges the work it does. When a limit trips, the charging site either
// returns the *ResourceError (error-returning call paths) or panics with
// it (deep walks that do not return errors); the engine boundary
// (Query.EvalContext) contains the panic and converts it into a
// structured error.
//
// A nil *Budget is a valid, unlimited budget: every method is
// nil-receiver safe, so call sites need no guards. Each evaluation owns
// its own Budget. The charge counters are atomic all the same: goroutines
// charging one budget never lose or double-count a unit, and the limit
// trips exactly once the aggregate crosses the bound.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Limit kinds, reported in ResourceError.Limit.
const (
	// LimitSteps: the cooperative step budget (evaluator operations,
	// reconstruction element visits, store-walk resolutions).
	LimitSteps = "steps"
	// LimitDepth: user-declared function recursion depth.
	LimitDepth = "depth"
	// LimitItems: sequence cardinality (result and intermediate tuples,
	// resolved filler versions).
	LimitItems = "items"
	// LimitBytes: approximate bytes of materialized XML (temporal views,
	// resolved fillers, constructed elements).
	LimitBytes = "bytes"
	// LimitTimeout: the per-evaluation deadline (Limits.Timeout or the
	// context's own deadline) expired.
	LimitTimeout = "timeout"
	// LimitCanceled: the evaluation's context was canceled.
	LimitCanceled = "canceled"
)

// DefaultMaxDepth bounds user-declared function recursion even when no
// explicit Limits are configured: an unbounded `declare function
// local:f($x) { local:f($x) }` would otherwise grow the goroutine stack
// until the process dies. Each level holds the full evaluator frame
// chain, so 1000 levels stay far below the runtime's stack ceiling while
// allowing any realistic structural recursion.
const DefaultMaxDepth = 1000

// checkInterval is how many charge operations pass between clock and
// context polls. Polling every operation would make time.Now the hot
// path; every 64th keeps cancellation latency in the microseconds for
// any loop that charges work.
const checkInterval = 64

// Limits bounds one evaluation. The zero value means unlimited in every
// dimension except recursion depth, which always falls back to
// DefaultMaxDepth.
type Limits struct {
	// MaxSteps bounds cooperative work units: every evaluator operation,
	// reconstructed element and store resolution counts one step.
	MaxSteps int64
	// MaxDepth bounds user-declared function recursion; 0 means
	// DefaultMaxDepth.
	MaxDepth int
	// MaxItems bounds sequence cardinality, counting FLWOR tuples,
	// axis-step matches and resolved filler versions — intermediate
	// results, not just the final sequence.
	MaxItems int64
	// MaxBytes bounds the approximate bytes of XML materialized during
	// the evaluation (temporal views, resolved fillers, constructed
	// elements).
	MaxBytes int64
	// Timeout is the per-evaluation deadline, measured from the start of
	// the evaluation. It composes with the context: whichever deadline
	// comes first wins.
	Timeout time.Duration
}

// ResourceError reports a tripped resource limit. It unwraps to the
// context error for cancellation/deadline trips, so errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) work.
type ResourceError struct {
	// Limit is the limit kind that tripped (LimitSteps, LimitDepth, …).
	Limit string
	// Used and Max are the charged amount and the configured bound for
	// counter limits; zero for cancellation trips.
	Used, Max int64
	// Cause is the underlying context error, when the trip came from
	// cancellation or a deadline.
	Cause error
}

func (e *ResourceError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("budget: evaluation %s: %v", e.Limit, e.Cause)
	}
	return fmt.Sprintf("budget: %s limit exceeded (used %d, max %d)", e.Limit, e.Used, e.Max)
}

// Unwrap exposes the context error behind cancellation trips.
func (e *ResourceError) Unwrap() error { return e.Cause }

// Budget meters one evaluation against its Limits and context. The
// counters are atomic; limits, ctx and the deadline are immutable between
// New (or Reset) and the end of the evaluation.
type Budget struct {
	limits      Limits
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	ops         atomic.Int64 // all charge calls, for clock-poll pacing
	steps       atomic.Int64
	items       atomic.Int64
	bytes       atomic.Int64
}

// New builds a budget over ctx and lim. The Timeout deadline starts
// now. ctx may be nil (background).
func New(ctx context.Context, lim Limits) *Budget {
	b := new(Budget)
	b.Reset(ctx, lim)
	return b
}

// Reset makes b the budget of a new evaluation, as New would build it:
// nothing charged, the Timeout deadline starting now. For an owner that
// runs one evaluation after another and is done with each before the
// next.
func (b *Budget) Reset(ctx context.Context, lim Limits) {
	b.limits, b.ctx = lim, ctx
	b.deadline, b.hasDeadline = time.Time{}, lim.Timeout > 0
	if b.hasDeadline {
		b.deadline = time.Now().Add(lim.Timeout)
	}
	b.ops.Store(0)
	b.steps.Store(0)
	b.items.Store(0)
	b.bytes.Store(0)
}

// Limits returns the configured limits (zero value on a nil budget).
func (b *Budget) Limits() Limits {
	if b == nil {
		return Limits{}
	}
	return b.limits
}

// Used reports the charged steps, items and bytes so far.
func (b *Budget) Used() (steps, items, bytes int64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.steps.Load(), b.items.Load(), b.bytes.Load()
}

// tick paces the clock/context poll across all charge flavours. The
// very first charge also polls, so a pre-expired deadline or an
// already-canceled context trips even on queries that finish in fewer
// than checkInterval operations.
func (b *Budget) tick() error {
	ops := b.ops.Add(1)
	if ops != 1 && ops%checkInterval != 0 {
		return nil
	}
	return b.checkClock()
}

func (b *Budget) checkClock() error {
	if b.hasDeadline && time.Now().After(b.deadline) {
		return &ResourceError{
			Limit: LimitTimeout,
			Used:  int64(b.limits.Timeout),
			Max:   int64(b.limits.Timeout),
			Cause: context.DeadlineExceeded,
		}
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			kind := LimitCanceled
			if errors.Is(err, context.DeadlineExceeded) {
				kind = LimitTimeout
			}
			return &ResourceError{Limit: kind, Cause: err}
		}
	}
	return nil
}

// Step charges one cooperative work unit and polls cancellation on the
// checkInterval cadence.
func (b *Budget) Step() error {
	if b == nil {
		return nil
	}
	steps := b.steps.Add(1)
	if b.limits.MaxSteps > 0 && steps > b.limits.MaxSteps {
		return &ResourceError{Limit: LimitSteps, Used: steps, Max: b.limits.MaxSteps}
	}
	return b.tick()
}

// AddItems charges n items of sequence cardinality.
func (b *Budget) AddItems(n int) error {
	if b == nil || n == 0 {
		return nil
	}
	items := b.items.Add(int64(n))
	if b.limits.MaxItems > 0 && items > b.limits.MaxItems {
		return &ResourceError{Limit: LimitItems, Used: items, Max: b.limits.MaxItems}
	}
	return b.tick()
}

// Charge charges at once what an evaluation charged before — steps, items
// and bytes — for a caller that replays one it memoized instead of running
// it again. Steps trip as Step does, one at a time: past MaxSteps the
// error reports the step that tripped, not the ones after it.
func (b *Budget) Charge(steps, items, bytes int64) error {
	if b == nil {
		return nil
	}
	if steps > 0 {
		used := b.steps.Add(steps)
		if b.limits.MaxSteps > 0 && used > b.limits.MaxSteps {
			return &ResourceError{Limit: LimitSteps, Used: max(used-steps, b.limits.MaxSteps) + 1, Max: b.limits.MaxSteps}
		}
		if err := b.tick(); err != nil {
			return err
		}
	}
	if err := b.AddItems(int(items)); err != nil {
		return err
	}
	return b.AddBytes(bytes)
}

// AddBytes charges n approximate bytes of materialized XML.
func (b *Budget) AddBytes(n int64) error {
	if b == nil || n == 0 {
		return nil
	}
	bytes := b.bytes.Add(n)
	if b.limits.MaxBytes > 0 && bytes > b.limits.MaxBytes {
		return &ResourceError{Limit: LimitBytes, Used: bytes, Max: b.limits.MaxBytes}
	}
	return b.tick()
}

// CheckDepth verifies a user-function application depth. It applies
// DefaultMaxDepth when the budget is nil or MaxDepth is unset, so bare
// evaluator use is still guarded against runaway recursion.
func (b *Budget) CheckDepth(depth int) error {
	max := DefaultMaxDepth
	if b != nil && b.limits.MaxDepth > 0 {
		max = b.limits.MaxDepth
	}
	if depth > max {
		return &ResourceError{Limit: LimitDepth, Used: int64(depth), Max: int64(max)}
	}
	return nil
}

// MustStep is Step for call paths that cannot return errors (deep
// reconstruction walks); it panics with the *ResourceError, which the
// engine boundary contains.
func (b *Budget) MustStep() {
	if err := b.Step(); err != nil {
		panic(err)
	}
}

// MustItems is AddItems, panic flavour.
func (b *Budget) MustItems(n int) {
	if err := b.AddItems(n); err != nil {
		panic(err)
	}
}

// MustBytes is AddBytes, panic flavour.
func (b *Budget) MustBytes(n int64) {
	if err := b.AddBytes(n); err != nil {
		panic(err)
	}
}

// Catch recovers a *ResourceError panic into *errp and lets every other
// panic continue unwinding. Use as `defer budget.Catch(&err)` at a
// boundary whose callees charge with the Must flavours.
func Catch(errp *error) {
	if p := recover(); p != nil {
		if re, ok := p.(*ResourceError); ok {
			*errp = re
			return
		}
		panic(p)
	}
}
