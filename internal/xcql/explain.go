package xcql

import (
	"fmt"
	"sort"
	"strings"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xq"
)

// Explain describes the physical shape of a compiled query: which plan
// it runs, which store access paths the translation chose, and what the
// paper's cost model predicts those paths will touch given the current
// store contents — next to what the most recent evaluation actually
// counted. The prediction uses the same units as obs.EvalStats, so
// predicted and observed read side by side.
type Explain struct {
	// Plan is the physical plan ("CaQ", "QaC", "QaC+").
	Plan string
	// Source is the original query text; Rewritten is the translated
	// engine expression the evaluator runs.
	Source    string
	Rewritten string
	// Streams are the stream names the plan touches, sorted.
	Streams []string
	// Targets are the store access paths in the plan, in plan order.
	Targets []ExplainTarget
	// Predicted is the cost-model estimate against current store
	// contents: how many filler versions the access paths would examine
	// if the query ran now. Zero-valued fields are not predicted
	// (wall times, bytes).
	Predicted obs.EvalStats
	// Observed is the counter snapshot from the most recent evaluation
	// (Query.LastStats); meaningful only when Evaluated is true.
	Observed  obs.EvalStats
	Evaluated bool
}

// ExplainTarget is one store access path in a translated plan.
type ExplainTarget struct {
	// Op names the access path: "materialize-view" (CaQ), "root",
	// "get_fillers" (QaC, one pass per hole), "get_fillers_batched"
	// (QaC+, one pass for all holes), "tsid-index" (QaC+ descendant
	// shortcut), "interval-projection", "version-projection".
	Op     string
	Stream string
	// TSID and Tag identify the targeted tag-structure node for the
	// fillers/tsid paths (0/"" otherwise).
	TSID int
	Tag  string
	// Holes is the number of distinct filler ids currently carrying the
	// target tsid; Versions the filler versions behind them. Zero for
	// whole-stream paths and unregistered streams.
	Holes    int
	Versions int
	// CostPerPass is the predicted filler versions examined by one
	// lookup pass under the store's cost model: the whole fragment log
	// on a scan store (the paper's predicate-scan model), only the
	// returned versions on an indexed one.
	CostPerPass int
	// Filter is what the translator pushed below the path, as the query
	// spelled it ("" when nothing): the path examines the same versions
	// either way and builds only those the filter keeps.
	Filter string
	// PerParent is the predicate list a child step applies to each parent's
	// versions ("" when none), window[…] marking the one the read serves:
	// the path examines the same versions and builds only those inside the
	// window.
	PerParent string
	// Bare reports that nothing the plan does with the path's output
	// observes a lifespan stamp (Intrinsic.Bare): the path hands out stored
	// payloads and builds no top.
	Bare bool
	// Span is the lifespan bound the path reads under, as the query spelled
	// it ("" when none): the path builds only the versions in it. A
	// tsid-index path on an event tag under a constant interval and no
	// filter examines only the versions its window reaches, and Versions
	// counts those, as of the store's newest version's validTime — the
	// instant a standing query evaluates the newest arrival at.
	Span string
}

func (t ExplainTarget) String() string {
	b := fmt.Sprintf("%-20s stream=%s", t.Op, t.Stream)
	if t.TSID > 0 {
		b += fmt.Sprintf(" tsid=%d", t.TSID)
		if t.Tag != "" {
			b += fmt.Sprintf(" tag=%s", t.Tag)
		}
	}
	if t.Holes > 0 || t.Versions > 0 {
		b += fmt.Sprintf(" holes=%d versions=%d cost/pass=%d", t.Holes, t.Versions, t.CostPerPass)
	}
	if t.Filter != "" {
		b += " pushed=" + t.Filter
	}
	if t.PerParent != "" {
		b += " per-parent=" + t.PerParent
	}
	if t.Span != "" {
		b += " span=" + t.Span
	}
	if t.Bare {
		b += " tops=bare"
	}
	return b
}

// Explain renders the query's physical plan without evaluating it. The
// prediction reflects the stores registered at call time: explaining the
// same query as fragments stream in shows the predicted costs growing.
func (q *Query) Explain() Explain {
	ex := Explain{
		Plan:      q.Mode.String(),
		Source:    q.Source,
		Rewritten: q.Plan.String(),
	}
	ex.Predicted.Plan = ex.Plan
	streams := map[string]bool{}
	walkExpr(q.Plan, func(e xq.Expr) {
		if in := IntrinsicOf(e); in != nil {
			for _, t := range q.explainCall(in) {
				streams[t.Stream] = true
				ex.Targets = append(ex.Targets, t)
				q.predict(&ex.Predicted, t)
			}
		}
	})
	for s := range streams {
		ex.Streams = append(ex.Streams, s)
	}
	sort.Strings(ex.Streams)
	last := q.LastStats()
	if last.Plan != "" {
		ex.Observed = last
		ex.Evaluated = true
	}
	return ex
}

// explainCall classifies one intrinsic call as store access paths: one
// per tsid a jump reads, else one.
func (q *Query) explainCall(in *Intrinsic) []ExplainTarget {
	t := ExplainTarget{Stream: in.Stream, Bare: in.Bare}
	switch in.Op {
	case FnView:
		t.Op = "materialize-view"
		return []ExplainTarget{q.censusWhole(t)}
	case FnRoot:
		t.Op = "root"
		return []ExplainTarget{q.censusWhole(t)}
	case FnIProj:
		t.Op = "interval-projection"
		return []ExplainTarget{t}
	case FnVProj:
		t.Op = "version-projection"
		return []ExplainTarget{t}
	}
	// the fillers call is the same under both fragment plans; QaC+'s
	// access path crosses the holes in one pass
	t.Op = "get_fillers"
	switch {
	case in.Op == FnByTSID:
		t.Op = "tsid-index"
	case q.Mode == QaCPlus:
		t.Op = "get_fillers_batched"
	}
	if in.filter != nil {
		t.Filter = in.filter.String()
	}
	if in.each != nil {
		t.PerParent = in.each.list()
	}
	if in.span != nil {
		t.Span = in.span.String()
	}
	out := make([]ExplainTarget, len(in.TSIDs))
	for i, tsid := range in.TSIDs {
		t.TSID = tsid
		out[i] = q.censusTSID(t)
		if in.Op == FnByTSID && in.filter == nil {
			out[i] = q.censusWindow(out[i], in.span)
		}
	}
	return out
}

// censusWindow narrows a tsid-index target's census to what its lifespan
// bound b reaches, when the read examines no more than that: b a constant
// interval on an event tag (fragment.Store.WindowExamined).
func (q *Query) censusWindow(t ExplainTarget, b *bound) ExplainTarget {
	st := q.rt.Store(t.Stream)
	if st == nil || b == nil || !b.fixed || b.versions {
		return t
	}
	if n, ok := st.WindowExamined(t.TSID, b.span.Window); ok {
		t.Versions, t.CostPerPass = n, st.PassCost(1, n)
	}
	return t
}

// censusTSID fills a target's store census from the store's index:
// distinct filler ids and versions currently carrying the tsid, and the
// cost of one lookup pass.
func (q *Query) censusTSID(t ExplainTarget) ExplainTarget {
	st := q.rt.Store(t.Stream)
	if st == nil {
		return t
	}
	if tag := st.Structure().ByID(t.TSID); tag != nil {
		t.Tag = tag.Name
	}
	fids, versions := st.TSIDFillers(t.TSID)
	t.Holes, t.Versions, t.CostPerPass = len(fids), versions, st.PassCost(1, versions)
	return t
}

// censusWhole fills a whole-stream target (view/root): every filler in
// the store is behind it.
func (q *Query) censusWhole(t ExplainTarget) ExplainTarget {
	st := q.rt.Store(t.Stream)
	if st == nil {
		return t
	}
	t.Holes = st.Fillers()
	t.Versions = st.Len()
	t.CostPerPass = st.PassCost(1, st.Len())
	return t
}

// predict charges one access path to the cost-model estimate, mirroring
// how the access paths charge EvalStats at run time, passes costed as they
// cost them (fragment.Store.PassCost).
func (q *Query) predict(p *obs.EvalStats, t ExplainTarget) {
	st := q.rt.Store(t.Stream)
	if st == nil {
		return
	}
	switch t.Op {
	case "materialize-view", "get_fillers":
		// one lookup pass per hole: CaQ's reconstruction and QaC's
		// per-hole get_fillers share this shape
		p.AddHoles(t.Holes)
		p.FillersScanned += int64(st.PassCost(t.Holes, t.Versions))
	case "get_fillers_batched":
		// QaC+: the whole hole set resolves in one pass
		p.AddHoles(t.Holes)
		p.FillersScanned += int64(t.CostPerPass)
	case "tsid-index":
		p.AddTSIDLookup(t.Versions)
		p.FillersScanned += int64(t.CostPerPass)
	case "root":
		// one lookup for the root filler's versions, which QaC plans open
		// with
		p.FillersScanned += int64(st.PassCost(1, len(st.Versions(fragment.RootFillerID))))
	}
}

// String renders the explanation for CLI and /statusz output.
func (ex Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN plan=%s\n", ex.Plan)
	fmt.Fprintf(&b, "query:     %s\n", ex.Source)
	fmt.Fprintf(&b, "rewritten: %s\n", ex.Rewritten)
	if len(ex.Streams) > 0 {
		fmt.Fprintf(&b, "streams:   %s\n", strings.Join(ex.Streams, ", "))
	}
	if len(ex.Targets) > 0 {
		b.WriteString("access paths:\n")
		for _, t := range ex.Targets {
			fmt.Fprintf(&b, "  %s\n", t)
		}
	}
	fmt.Fprintf(&b, "predicted: %s\n", statsLine(ex.Predicted))
	if ex.Evaluated {
		obsLine := statsLine(ex.Observed)
		fmt.Fprintf(&b, "observed:  %s (exec=%v materialize=%v)\n",
			obsLine, ex.Observed.ExecTime, ex.Observed.MaterializeTime)
	} else {
		b.WriteString("observed:  <not yet evaluated>\n")
	}
	return b.String()
}

// statsLine renders the cost counters predicted and observed share.
func statsLine(s obs.EvalStats) string {
	return fmt.Sprintf("fillers-scanned=%d holes-resolved=%d tsid-lookups=%d tsid-hits=%d",
		s.FillersScanned, s.HolesResolved, s.TSIDLookups, s.TSIDIndexHits)
}

// walkExpr visits e and every sub-expression, calling fn on each node in
// pre-order. It mirrors the translator's structural coverage so every
// expression kind the compiler can emit is walked.
func walkExpr(e xq.Expr, fn func(xq.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch ex := e.(type) {
	case *xq.Literal, *xq.LastMarker, *xq.VarRef, *xq.ContextItem, *xq.StreamRef:
	case *xq.SeqExpr:
		for _, it := range ex.Items {
			walkExpr(it, fn)
		}
	case *xq.Path:
		walkExpr(ex.Base, fn)
		for _, st := range ex.Steps {
			for _, p := range st.Preds {
				walkExpr(p, fn)
			}
		}
	case *xq.Filter:
		walkExpr(ex.Base, fn)
		for _, p := range ex.Preds {
			walkExpr(p, fn)
		}
	case *xq.BinOp:
		walkExpr(ex.L, fn)
		walkExpr(ex.R, fn)
	case *xq.Unary:
		walkExpr(ex.E, fn)
	case *xq.If:
		walkExpr(ex.Cond, fn)
		walkExpr(ex.Then, fn)
		walkExpr(ex.Else, fn)
	case *xq.FLWOR:
		for _, cl := range ex.Clauses {
			switch clause := cl.(type) {
			case xq.ForClause:
				walkExpr(clause.In, fn)
			case xq.LetClause:
				walkExpr(clause.E, fn)
			}
		}
		walkExpr(ex.Where, fn)
		for _, spec := range ex.OrderBy {
			walkExpr(spec.Key, fn)
		}
		walkExpr(ex.Return, fn)
	case *xq.Quantified:
		walkExpr(ex.In, fn)
		walkExpr(ex.Satisfies, fn)
	case *xq.Call:
		for _, a := range ex.Args {
			walkExpr(a, fn)
		}
		if in := IntrinsicOf(ex); in != nil {
			if in.each != nil {
				for _, p := range in.each.preds {
					walkExpr(p, fn)
				}
			}
			if in.span != nil {
				walkExpr(in.span.from, fn)
				if in.span.to != in.span.from {
					walkExpr(in.span.to, fn)
				}
			}
		}
	case *xq.ElemCtor:
		walkExpr(ex.NameExpr, fn)
		for _, a := range ex.Attrs {
			for _, p := range a.Parts {
				walkExpr(p, fn)
			}
		}
		for _, c := range ex.Content {
			walkExpr(c, fn)
		}
	case *xq.AttrCtorExpr:
		walkExpr(ex.Value, fn)
	case *xq.Module:
		for _, fd := range ex.Funcs {
			walkExpr(fd.Body, fn)
		}
		walkExpr(ex.Body, fn)
	case *xq.IntervalProj:
		walkExpr(ex.E, fn)
		walkExpr(ex.From, fn)
		walkExpr(ex.To, fn)
	case *xq.VersionProj:
		walkExpr(ex.E, fn)
		walkExpr(ex.From, fn)
		walkExpr(ex.To, fn)
	}
}
