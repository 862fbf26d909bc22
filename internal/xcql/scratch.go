package xcql

import (
	"xcql/internal/fragment"
	"xcql/internal/xq"
)

// scratch is what one evaluation borrows of its runtime and hands back when
// it returns (DESIGN.md "What an evaluation allocates"): the evaluator's
// scratch — argument stack, lent sequences, constructor state —, its
// reads' bookkeeping — hole ids and groups, kept-version notes, node
// lists — and its static environment. No result
// keeps any of it, so the runtime recycles it across evaluations instead of
// each evaluation allocating its own. It is the runtime's, never a compiled
// Query's: the plan cache shares one Query's plan across concurrent
// requests, and each request takes a scratch of its own.
type scratch struct {
	eval xq.Scratch
	read fragment.Scratch
	// envs are the static environments of the evaluations the runtime
	// serves with the scratch (Query.run), by access kind, made on first
	// use and armed per evaluation: no result keeps them either.
	envs [2]*evalEnv
}

// env is the static environment of an evaluation of q over sc.
func (sc *scratch) env(q *Query) *evalEnv {
	k := q.Mode.access()
	if sc.envs[k] == nil {
		sc.envs[k] = q.newEnv()
	}
	return sc.envs[k]
}

// takeScratch hands out a scratch for one evaluation: the one the runtime
// keeps, or, while another evaluation holds that one, a new one.
func (rt *Runtime) takeScratch() *scratch {
	if sc := rt.scratch.Swap(nil); sc != nil {
		return sc
	}
	return new(scratch)
}

// giveScratch takes back a scratch its evaluation is done with, on every
// exit — a contained budget trip or a cancellation included —, trimmed to
// the caps of what it keeps. The runtime keeps the one given back last:
// what it keeps it keeps for good, and evaluations made one at a time need
// no more than one.
func (rt *Runtime) giveScratch(sc *scratch) {
	sc.eval.Trim()
	rt.scratch.Store(sc)
}
