package xcql_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
	"xcql/internal/xtime"
)

// lawWindow is an interval projection's window as a query spells it: two
// instants, or an instant and now (open).
type lawWindow struct {
	from, to time.Time
	open     bool
}

func (w lawWindow) String() string {
	to := "now"
	if !w.open {
		to = w.to.Format(xtime.Layout)
	}
	return "?[" + w.from.Format(xtime.Layout) + "," + to + "]"
}

// meet is the window ?[max(a,c),min(b,d)] of w and o at the instant at,
// and false where min(b,d) is a concrete instant equal to now: its spelling
// would decide whether a clipped lifespan ends "now" or at that instant.
func (w lawWindow) meet(o lawWindow, at time.Time) (lawWindow, bool) {
	m := lawWindow{from: w.from}
	if o.from.After(m.from) {
		m.from = o.from
	}
	switch {
	case w.open && o.open:
		m.open = true
	case w.open || o.open:
		to := w.to
		if w.open {
			to = o.to
		}
		if to.Equal(at) {
			return m, false
		}
		m.to, m.open = to, to.After(at)
	default:
		m.to = w.to
		if o.to.Before(m.to) {
			m.to = o.to
		}
	}
	return m, true
}

// end is the last instant of w at at.
func (w lawWindow) end(at time.Time) time.Time {
	if w.open {
		return at
	}
	return w.to
}

// empty reports that w holds no instant at at: it ends before it begins.
// The meet of two windows that share no instant is such a window.
func (w lawWindow) empty(at time.Time) bool { return w.end(at).Before(w.from) }

// contains reports that the lifespan [from, to] lies in w at at.
func (w lawWindow) contains(from, to xtime.DateTime, at time.Time) bool {
	return !from.Resolve(at).Before(w.from) && !to.Resolve(at).After(w.end(at))
}

// lawWindows are the windows the laws project by, in hours past
// genstore.Base: whole hours fall on version boundaries, half hours cut
// lifespans in two; they overlap, nest, touch and lie apart, and two end
// before they begin.
func lawWindows() []lawWindow {
	h := func(x float64) time.Time { return genstore.Base.Add(time.Duration(x * float64(time.Hour))) }
	return []lawWindow{
		{from: h(0), to: h(2)},
		{from: h(1.5), to: h(4.5)},
		{from: h(2), to: h(6)},
		{from: h(3), to: h(3)},
		{from: h(5.5), to: h(11)},
		{from: h(8), to: h(20)},
		{from: h(2.5), open: true},
		{from: h(9), open: true},
		{from: h(4.5), to: h(1.5)},
		{from: h(11), to: h(5.5)},
	}
}

// lawExpr is an expression the laws project, and whether what it returns
// is versions under every plan, each with a lifespan: a window they share
// no instant with leaves nothing of them. tsid is the tag of those
// versions.
type lawExpr struct {
	src      string
	versions bool
	tsid     int
}

// lawExprs are the expressions the laws project: each fragmented tag's
// versions (a descendant step), a fragmented child under its parent (a
// child step crossing holes) and the whole document, whose projection clips
// every element below the root (CaQ's root is a snapshot element, the
// fragment plans' a version).
func lawExprs(s *tagstruct.Structure) []lawExpr {
	out := []lawExpr{{src: fmt.Sprintf(`stream("s")/%s`, s.Root.Name)}}
	for _, t := range s.Tags() {
		if !t.IsFragmented() || len(out) > 6 {
			continue
		}
		out = append(out, lawExpr{fmt.Sprintf(`stream("s")//%s`, t.Name), true, t.ID})
		for _, c := range t.Children {
			if c.IsFragmented() {
				out = append(out, lawExpr{fmt.Sprintf(`stream("s")//%s/%s`, t.Name, c.Name), true, c.ID})
				break
			}
		}
	}
	return out
}

// oneHistory reports that the versions of tag tsid in frags are one
// filler's, none dated after at: what e#[last] reads as the history of one
// element whose last version is its current one.
func oneHistory(frags []*fragment.Fragment, tsid int, at time.Time) bool {
	filler := 0
	for _, f := range frags {
		if f.TSID != tsid {
			continue
		}
		if (filler != 0 && f.FillerID != filler) || f.ValidTime.After(at) {
			return false
		}
		filler = f.FillerID
	}
	return filler != 0
}

// serialize is seq as the laws compare it: one item a line.
func serialize(seq xq.Sequence) string {
	var b strings.Builder
	for _, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			b.WriteString(n.String())
		} else {
			fmt.Fprintf(&b, "%T %s", it, xq.StringValue(it))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ownVersions is each element of seq with its attributes and text but no
// element below it: the version itself, whatever a projection did to its
// children.
func ownVersions(seq xq.Sequence) string {
	var b strings.Builder
	for _, n := range xq.Nodes(seq) {
		own := n.CloneShallow()
		own.Children = nil
		for _, c := range n.Children {
			if c.Type == xmldom.TextNode {
				own.Children = append(own.Children, c)
			}
		}
		b.WriteString(own.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// outsideWindow is the first element of seq, at any depth, whose lifespan
// stamps do not make a lifespan inside w at at, "" when every stamped
// element's does.
func outsideWindow(seq xq.Sequence, w lawWindow, at time.Time) string {
	bad := ""
	for _, n := range xq.Nodes(seq) {
		n.Walk(func(m *xmldom.Node) bool {
			fromS, okF := m.Attr("vtFrom")
			toS, okT := m.Attr("vtTo")
			if m.Type != xmldom.ElementNode || !okF || !okT {
				return true
			}
			from, errF := xtime.Parse(fromS)
			to, errT := xtime.Parse(toS)
			if errF != nil || errT != nil || from.Compare(to, at) > 0 || !w.contains(from, to, at) {
				bad = m.CloneShallow().String()
			}
			return bad == ""
		})
		if bad != "" {
			break
		}
	}
	return bad
}

// TestProjectionLaws holds interval and version projection to their laws
// at the query level, on generated stores under each plan, each plan
// compared with itself only (the plans part on some histories: ROADMAP
// item 2). Under QaC and QaC+ a projection that follows a step is that
// step's read under a lifespan bound, and one after it a projection call,
// so the laws hold across the two:
//
//   - composition: e?[a,b]?[c,d] serializes as e?[max(a,c),min(b,d)] —
//     over windows that end before they begin too, where the meet ends
//     before it begins — and, when the meet holds no instant, as no
//     version at all;
//   - idempotence: e?[a,b]?[a,b] serializes as e?[a,b];
//   - clipping: every lifespan e?[a,b] stamps begins by its end and lies
//     in [a,b];
//   - e#[1,last] keeps every version of e: the same elements, each with
//     its own stamps and text (its children it clips to its lifespan);
//   - e#[last]?[now] serializes as e?[now] where e is one filler's
//     versions, none of them dated after now.
func TestProjectionLaws(t *testing.T) {
	windows := lawWindows()
	empty, checked, histories, bounded := 0, 0, 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []genstore.Profile{
			{Seed: seed},
			{Seed: seed, Reannounce: true},
			{Seed: seed, Scan: true, Duplicates: true},
			{Seed: seed, Reorder: true, Drops: true},
		} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ins.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			rt := xcql.NewRuntime()
			rt.RegisterStream("s", st)
			exprs := lawExprs(ins.Structure)
			for _, mode := range bareModes {
				for _, at := range ins.Instants[1:] {
					run := func(src string) xq.Sequence {
						t.Helper()
						q, err := rt.Compile(src, mode)
						if err != nil {
							t.Fatalf("%s: %s under %s: %v", p, src, mode, err)
						}
						if pushed(q) {
							bounded++
						}
						seq, err := q.Eval(at)
						if err != nil {
							t.Fatalf("%s: %s under %s at %s: %v", p, src, mode, at.Format(xtime.Layout), err)
						}
						return seq
					}
					eval := func(src string) string {
						t.Helper()
						return serialize(run(src))
					}
					for _, e := range exprs {
						for i, w := range windows {
							kept := run(e.src + w.String())
							once := serialize(kept)
							if twice := eval(e.src + w.String() + w.String()); twice != once {
								t.Errorf("%s under %s at %s: idempotence fails for %s%s\ntwice:\n%sonce:\n%s",
									p, mode, at.Format(xtime.Layout), e.src, w, twice, once)
							}
							if bad := outsideWindow(kept, w, at); bad != "" {
								t.Errorf("%s under %s at %s: clipping fails for %s%s: it keeps %s",
									p, mode, at.Format(xtime.Layout), e.src, w, bad)
							}
							for _, o := range windows[i+1:] {
								m, ok := w.meet(o, at)
								if !ok {
									continue
								}
								checked++
								got := eval(e.src + w.String() + o.String())
								if m.empty(at) {
									empty++
									if e.versions && got != "" {
										t.Errorf("%s under %s at %s: %s%s%s over windows that share no instant is\n%s",
											p, mode, at.Format(xtime.Layout), e.src, w, o, got)
									}
								}
								if want := eval(e.src + m.String()); got != want {
									t.Errorf("%s under %s at %s: composition fails: %s%s%s is\n%swhile %s%s is\n%s",
										p, mode, at.Format(xtime.Layout), e.src, w, o, got, e.src, m, want)
								}
							}
						}
						if !e.versions {
							continue
						}
						if got, want := ownVersions(run(e.src+"#[1,last]")), ownVersions(run(e.src)); got != want {
							t.Errorf("%s under %s at %s: %s#[1,last] keeps\n%swhile %s holds\n%s",
								p, mode, at.Format(xtime.Layout), e.src, got, e.src, want)
						}
						if !oneHistory(ins.Fragments, e.tsid, at) {
							continue
						}
						histories++
						if got, want := eval(e.src+"#[last]?[now]"), eval(e.src+"?[now]"); got != want {
							t.Errorf("%s under %s at %s: %s#[last]?[now] is\n%swhile %s?[now] is\n%s",
								p, mode, at.Format(xtime.Layout), e.src, got, e.src, want)
						}
					}
				}
			}
		}
	}
	if empty == 0 || empty == checked {
		t.Fatalf("%d of %d window pairs meet in no instant: a law goes unchecked", empty, checked)
	}
	if histories == 0 {
		t.Fatal("no expression reads one filler's history: e#[last]?[now] goes unchecked")
	}
	if bounded == 0 {
		t.Fatal("no plan reads under a lifespan bound: the laws go unchecked over pushed projections")
	}
}

// versionKey names one version of a filler as a result element shows it:
// its tag, its attributes but the lifespan stamps, its own text and its
// vtFrom. A filler's versions differ in vtFrom, so two elements of one
// filler have two keys exactly when they are two versions.
func versionKey(n *xmldom.Node, vtFrom string) string {
	var b strings.Builder
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		if a.Name != "vtFrom" && a.Name != "vtTo" {
			fmt.Fprintf(&b, " %s=%q", a.Name, a.Value)
		}
	}
	for _, c := range n.Children {
		if c.Type == xmldom.TextNode {
			b.WriteString("|" + c.Text())
		}
	}
	return b.String() + "@" + vtFrom
}

// TestSnapshotUniquenessLaw: e?[now] holds at most one version per filler
// id, on generated stores under each plan, at instants off every version
// boundary (versions begin on whole hours; the laws read half past). A
// projection stamps what it keeps with the window, which names no version,
// so the law reads the versions e?[now] keeps unclipped: for $v in e where
// exists($v?[now]) return $v. At a
// re-announcement instant the law fails today under every plan, since a
// superseded version's lifespan is closed at its successor's vtFrom: that
// is snapshotTwin (the root package's TestSnapshotTwinReproduces), open
// in ROADMAP item 2 until item 2 (b) picks the boundary rule.
func TestSnapshotUniquenessLaw(t *testing.T) {
	checked, histories := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []genstore.Profile{
			{Seed: seed},
			{Seed: seed, Reannounce: true},
			{Seed: seed, Scan: true, Duplicates: true},
			{Seed: seed, Reorder: true, Drops: true},
		} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ins.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			rt := xcql.NewRuntime()
			rt.RegisterStream("s", st)
			for _, e := range lawExprs(ins.Structure) {
				if !e.versions {
					continue
				}
				// which filler each version is, by its key; a key two
				// fillers share names neither
				filler := make(map[string]int)
				versions := make(map[int]int)
				for _, f := range ins.Fragments {
					if f.TSID != e.tsid {
						continue
					}
					key := versionKey(f.Tree(), f.ValidTime.Format(xtime.Layout))
					if id, seen := filler[key]; seen && id != f.FillerID {
						filler[key] = 0
					} else {
						filler[key] = f.FillerID
					}
					versions[f.FillerID]++
				}
				for _, n := range versions {
					if n > 1 {
						histories++
					}
				}
				for _, mode := range bareModes {
					for _, at := range ins.Instants {
						at = genstore.Base.Add(at.Sub(genstore.Base).Truncate(time.Hour) + 30*time.Minute)
						q, err := rt.Compile("for $v in "+e.src+" where exists($v?[now]) return $v", mode)
						if err != nil {
							t.Fatalf("%s: %s?[now] under %s: %v", p, e.src, mode, err)
						}
						seq, err := q.Eval(at)
						if err != nil {
							t.Fatalf("%s: %s?[now] under %s at %s: %v", p, e.src, mode, at.Format(xtime.Layout), err)
						}
						held := make(map[int]string)
						for _, n := range xq.Nodes(seq) {
							from, _ := n.Attr("vtFrom")
							key := versionKey(n, from)
							id := filler[key]
							if id == 0 {
								continue
							}
							checked++
							if prev, ok := held[id]; ok && prev != key {
								t.Errorf("%s under %s at %s: %s?[now] holds two versions of filler %d:\n%s\n%s",
									p, mode, at.Format(xtime.Layout), e.src, id, prev, key)
							}
							held[id] = key
						}
					}
				}
			}
		}
	}
	if checked == 0 || histories == 0 {
		t.Fatalf("%d versions checked, %d fillers with several versions: the law goes unchecked", checked, histories)
	}
}
