package xcql

import (
	"time"

	"xcql/internal/xq"
)

// The plan cache: Compile keeps what it made of a text and hands every
// later Compile of the same key a new Query over it, so a request that
// repeats a text pays only for its evaluation (DESIGN.md "What an
// evaluation allocates"). A plan is a function of the text, the mode and
// the Tag Structures of the streams registered when it was translated —
// stores, functions and documents are looked up when it is evaluated — so
// the key is the text, the mode, the runtime's generation, which
// RegisterStream and RegisterFunc bump, and the compiler's bareReads
// setting. A failed compile is not kept.
//
// The cache holds at most maxCachedPlans plans and maxCachedPlanBytes bytes
// of their texts; a text longer than that is compiled every time. When a
// new plan does not fit, plans are dropped in map order — in no order the
// traffic can steer — until it does.
const (
	maxCachedPlans     = 256
	maxCachedPlanBytes = 1 << 20
)

type planKey struct {
	src  string
	mode Mode
	gen  uint64
	bare bool
}

// compiled is what one compile made, shared read-only by every Query of its
// key: Limits, LastStats and EXPLAIN stay the Query's own.
type compiled struct {
	ast, plan     xq.Expr
	streams       []string
	parseTime     time.Duration
	translateTime time.Duration
}

type planCache struct {
	plans map[planKey]*compiled
	bytes int // of the kept plans' texts
}

// put keeps p under k, dropping other plans until the cache is within its
// bound. Called with the runtime's lock held.
func (c *planCache) put(k planKey, p *compiled) {
	if len(k.src) > maxCachedPlanBytes {
		return
	}
	if c.plans == nil {
		c.plans = make(map[planKey]*compiled)
	}
	if _, ok := c.plans[k]; ok {
		return // a concurrent miss of the same key stored its plan first
	}
	for old := range c.plans {
		if len(c.plans) < maxCachedPlans && c.bytes+len(k.src) <= maxCachedPlanBytes {
			break
		}
		delete(c.plans, old)
		c.bytes -= len(old.src)
	}
	c.plans[k] = p
	c.bytes += len(k.src)
}

// reset drops every plan: a new generation can reach none of them.
func (c *planCache) reset() {
	clear(c.plans)
	c.bytes = 0
}
