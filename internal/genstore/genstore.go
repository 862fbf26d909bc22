// Package genstore generates deterministic pseudo-random stream
// histories — tag structure, multi-version fragment sets, arrival-order
// mutations — together with XCQL queries over them. It feeds the
// metamorphic differential harness: every generated (store, query,
// instant) triple must produce byte-identical results under all three
// physical plans, whatever the history looked like on the wire.
//
// Everything derives from a single seed through one math/rand stream, so
// a failing case is reproducible from its seed alone.
package genstore

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// Base is the validTime of every generated history's initial document;
// all other version times are offsets forward from it.
var Base = time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC)

// Profile selects the seed and which wire-history mutations to apply.
type Profile struct {
	Seed int64
	// Reorder shuffles fragment arrival order (the root filler stays
	// first so the earliest evaluation instant finds a document).
	Reorder bool
	// Duplicates re-appends some frames, modelling duplicate delivery
	// reaching the store as extra same-validTime versions.
	Duplicates bool
	// Drops omits some non-root fillers entirely, leaving dangling holes
	// the engine must skip in every plan.
	Drops bool
	// Scan builds the paper's linear-scan store instead of the indexed
	// one.
	Scan bool
	// Reannounce sends the stream a real publisher sends: a filler's
	// first versions carry no holes, and every child is preceded by a new
	// version of its parent announcing it — the hole list grows by one per
	// child, and the child's history starts where that version does.
	// Without it every version of a filler carries the full hole set and
	// no parent is ever re-versioned for a child.
	Reannounce bool
}

func (p Profile) String() string {
	s := fmt.Sprintf("seed=%d", p.Seed)
	if p.Reorder {
		s += ",reorder"
	}
	if p.Duplicates {
		s += ",dup"
	}
	if p.Drops {
		s += ",drop"
	}
	if p.Scan {
		s += ",scan"
	}
	if p.Reannounce {
		s += ",reannounce"
	}
	return s
}

// Query is one generated query with a stable name for test output.
type Query struct {
	Name string
	Src  string
}

// Instance is one generated history: structure, the fragment sequence in
// final arrival order, the queries to run and the instants to run them
// at.
type Instance struct {
	Profile   Profile
	Structure *tagstruct.Structure
	Fragments []*fragment.Fragment
	Queries   []Query
	Instants  []time.Time
}

// NewStore builds a fresh store (indexed or scan per the profile) and
// ingests the instance's fragments in order.
func (ins *Instance) NewStore() (*fragment.Store, error) {
	var st *fragment.Store
	if ins.Profile.Scan {
		st = fragment.NewScanStore(ins.Structure)
	} else {
		st = fragment.NewStore(ins.Structure)
	}
	if err := st.AddAll(ins.Fragments); err != nil {
		return nil, err
	}
	return st, nil
}

// ReversedFragments returns the instance's fragments in reverse arrival
// order — the adversarial input for arrival-order metamorphic tests.
func (ins *Instance) ReversedFragments() []*fragment.Fragment {
	out := make([]*fragment.Fragment, len(ins.Fragments))
	for i, f := range ins.Fragments {
		out[len(out)-1-i] = f
	}
	return out
}

// ShuffledFragments returns the instance's fragments in a seeded random
// arrival order. The same seed always yields the same permutation.
func (ins *Instance) ShuffledFragments(seed int64) []*fragment.Fragment {
	out := make([]*fragment.Fragment, len(ins.Fragments))
	copy(out, ins.Fragments)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// gen carries the generation state for one instance.
type gen struct {
	rng        *rand.Rand
	nextTag    int
	nextFiller int
	frags      []*fragment.Fragment
	maxOffset  int // hours past Base of the latest version generated
	dropped    map[int]bool
	profile    Profile
}

// tag-name pool; combined with the tag id so sibling names stay unique.
var names = []string{
	"item", "entry", "record", "event", "change", "note", "state",
	"batch", "order", "reading", "visit", "span",
}

// Generate builds one instance from the profile. The same profile always
// yields the identical instance.
func Generate(p Profile) (*Instance, error) {
	g := &gen{
		rng:        rand.New(rand.NewSource(p.Seed)),
		nextTag:    1,
		nextFiller: fragment.RootFillerID + 1,
		dropped:    map[int]bool{},
		profile:    p,
	}
	root := g.genTag(0, tagstruct.Snapshot)
	// a history without fragmented tags has no holes and tests nothing;
	// force at least one temporal child under the root
	if !hasFragmented(root) {
		root.Children = append(root.Children, g.genTag(1, tagstruct.Temporal))
	}
	structure, err := tagstruct.New(root)
	if err != nil {
		return nil, err
	}
	// the root filler: one version at Base carrying the initial document
	g.emit(fragment.RootFillerID, root, []int{0})
	g.mutate()
	ins := &Instance{
		Profile:   p,
		Structure: structure,
		Fragments: g.frags,
		Queries:   g.genQueries(structure),
	}
	// instants: the initial document, mid-history, and past every version
	mid := Base.Add(time.Duration(g.maxOffset) * time.Hour / 2)
	end := Base.Add(time.Duration(g.maxOffset+1) * time.Hour)
	ins.Instants = []time.Time{Base, mid, end}
	return ins, nil
}

// genTag builds a random tag subtree. Fragmented tags get shallower
// children so generated documents stay small.
func (g *gen) genTag(depth int, typ tagstruct.TagType) *tagstruct.Tag {
	t := &tagstruct.Tag{
		Type: typ,
		ID:   g.nextTag,
		Name: fmt.Sprintf("%s%d", names[g.rng.Intn(len(names))], g.nextTag),
	}
	g.nextTag++
	if depth >= 3 {
		return t
	}
	kids := g.rng.Intn(4 - depth)
	for i := 0; i < kids; i++ {
		var childType tagstruct.TagType
		switch g.rng.Intn(4) {
		case 0:
			childType = tagstruct.Snapshot
		case 1, 2:
			childType = tagstruct.Temporal
		default:
			childType = tagstruct.Event
		}
		t.Children = append(t.Children, g.genTag(depth+1, childType))
	}
	return t
}

func hasFragmented(t *tagstruct.Tag) bool {
	for _, c := range t.Children {
		if c.IsFragmented() || hasFragmented(c) {
			return true
		}
	}
	return false
}

// emit generates the versions of one filler: for each hour offset in
// offsets, one fragment whose payload is a fresh random element of the
// tag — inline snapshot children, holes for fragmented children (their
// fillers are emitted recursively). Every version of a filler carries
// the same hole ids, exercising the resolve-once-per-id rule; new
// fragmented instances appear as new fillers, not re-announced holes —
// unless the profile re-announces, see emitReannounced.
func (g *gen) emit(fillerID int, tag *tagstruct.Tag, offsets []int) {
	if g.profile.Reannounce {
		g.emitReannounced(fillerID, tag, offsets)
		return
	}
	// allocate the hole set once so all versions agree on it
	type holeSlot struct {
		child *tagstruct.Tag
		id    int
	}
	var holes []holeSlot
	for _, c := range tag.Children {
		if !c.IsFragmented() {
			continue
		}
		instances := g.rng.Intn(3)
		for i := 0; i < instances; i++ {
			holes = append(holes, holeSlot{child: c, id: g.nextFiller})
			g.nextFiller++
		}
	}
	for _, off := range offsets {
		payload := g.genElement(tag)
		for _, h := range holes {
			payload.AppendChild(fragment.NewHole(h.id, h.child.ID))
		}
		g.version(fillerID, tag, off, payload)
	}
	for _, h := range holes {
		if g.profile.Drops && g.rng.Intn(4) == 0 {
			// dangling hole: the filler never arrives
			g.dropped[h.id] = true
			continue
		}
		g.emit(h.id, h.child, g.versionOffsets(h.child))
	}
}

// emitReannounced generates one filler the way a publisher that learns
// of children one at a time does: its versions at offsets carry no holes;
// then, per child, one more version announcing it (the payload of the
// last version with the hole list grown by one), an hour or more after
// the previous one, followed by the child's own history starting at that
// hour. Every fragmented child tag gets at least one child, so these
// histories are the longer ones.
func (g *gen) emitReannounced(fillerID int, tag *tagstruct.Tag, offsets []int) {
	var payload *xmldom.Node
	off := 0
	for _, off = range offsets {
		payload = g.genElement(tag)
		g.version(fillerID, tag, off, payload)
	}
	for _, c := range tag.Children {
		if !c.IsFragmented() {
			continue
		}
		for i := 1 + g.rng.Intn(3); i > 0; i-- {
			id := g.nextFiller
			g.nextFiller++
			off += 1 + g.rng.Intn(3)
			last := payload
			payload = last.CloneShallow()
			payload.Children = append(last.Children[:len(last.Children):len(last.Children)], fragment.NewHole(id, c.ID))
			g.version(fillerID, tag, off, payload)
			if g.profile.Drops && g.rng.Intn(4) == 0 {
				g.dropped[id] = true
				continue
			}
			childOffs := g.versionOffsets(c)
			shift := off - childOffs[0]
			for j := range childOffs {
				childOffs[j] += shift
			}
			g.emit(id, c, childOffs)
		}
	}
}

// version appends one fragment: a version of fillerID at Base+off hours.
func (g *gen) version(fillerID int, tag *tagstruct.Tag, off int, payload *xmldom.Node) {
	if off > g.maxOffset {
		g.maxOffset = off
	}
	g.frags = append(g.frags, fragment.New(fillerID, tag.ID, Base.Add(time.Duration(off)*time.Hour), payload))
}

// versionOffsets picks the hour offsets of one filler's versions: events
// get a single occurrence, temporal fillers 1–3 versions at increasing
// times.
func (g *gen) versionOffsets(tag *tagstruct.Tag) []int {
	if tag.Type == tagstruct.Event {
		return []int{g.rng.Intn(20)}
	}
	n := 1 + g.rng.Intn(3)
	offs := make([]int, 0, n)
	off := g.rng.Intn(6)
	for i := 0; i < n; i++ {
		offs = append(offs, off)
		off += 1 + g.rng.Intn(8)
	}
	return offs
}

// genElement builds one version payload: the tag's element with a number
// below 1000 as its text and its snapshot children inlined recursively (their fragmented
// descendants' holes belong to the enclosing filler and are appended by
// emit's caller only at the top level — nested snapshot tags keep their
// own fragmented children out of scope to keep documents bounded). A leaf
// snapshot child of an even number comes twice, so a comparison on it is
// existential over several nodes.
func (g *gen) genElement(tag *tagstruct.Tag) *xmldom.Node {
	el := numbered(tag.Name, g.rng.Intn(1000))
	for _, c := range tag.Children {
		if c.IsFragmented() {
			continue
		}
		kid := g.genElement(c)
		el.AppendChild(kid)
		if n := kidNumber(kid); len(c.Children) == 0 && n%2 == 0 {
			el.AppendChild(numbered(c.Name, (n+333)%1000))
		}
	}
	return el
}

// numbered builds <name k=… tier=… at=… pad=…>n</name>. The attributes
// are functions of n — no draw of their own, so histories keep their shape
// — and give predicates something of every class to compare: a number, a
// string, a dateTime, and a number inside whitespace.
func numbered(name string, n int) *xmldom.Node {
	el := xmldom.NewElement(name)
	el.SetAttr("k", fmt.Sprint(n%7))
	el.SetAttr("tier", fmt.Sprintf("t%d", n%3))
	el.SetAttr("at", Base.Add(time.Duration(n%24)*time.Hour).Format(xtime.Layout))
	el.SetAttr("pad", fmt.Sprintf(" %d ", n%5))
	el.AppendChild(xmldom.NewText(fmt.Sprint(n)))
	return el
}

// kidNumber reads back the number numbered gave el.
func kidNumber(el *xmldom.Node) int {
	n, _ := strconv.Atoi(el.Children[0].Data)
	return n
}

// mutate applies the profile's wire-history mutations to the emitted
// fragment order.
func (g *gen) mutate() {
	if g.profile.Reorder && len(g.frags) > 2 {
		rest := g.frags[1:]
		g.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	}
	if g.profile.Duplicates {
		var out []*fragment.Fragment
		for _, f := range g.frags {
			out = append(out, f)
			if g.rng.Intn(5) == 0 {
				out = append(out, f)
			}
		}
		g.frags = out
	}
}

// genQueries derives the query set from the structure: descendant and
// rooted-path selections, counts, interval and version projections, a
// constructor wrap and a value filter for every fragmented tag, predicates
// on both sides of what the translator pushes below the access path for
// the first (genPredicates), and for
// a tag with a fragmented child the sliding-window shapes of the paper's
// continuous queries (bounded so large structures don't explode the
// corpus) and, for the first such tag, positions on the child step
// (genPositional), then the same positions taken from each version a
// for clause binds, the first event tag's versions under a window that ends
// before now, and last projections of the first tag that follow no step.
// The windows are a few hours wide and histories span a day, so they
// expire while a history replays.
func (g *gen) genQueries(s *tagstruct.Structure) []Query {
	var qs []Query
	add := func(kind string, t *tagstruct.Tag, format string, args ...any) {
		qs = append(qs, Query{Name: kind + "-" + t.Name, Src: fmt.Sprintf(format, args...)})
	}
	fragTags := 0
	var first, parent, child *tagstruct.Tag // what genPredicates and genPositional were given
	for _, t := range s.Tags() {
		if !t.IsFragmented() {
			continue
		}
		fragTags++
		if fragTags > 6 {
			break
		}
		add("descendant", t, `for $x in stream("s")//%s return $x`, t.Name)
		add("count", t, `count(for $x in stream("s")//%s return $x)`, t.Name)
		add("path", t, `for $x in stream("s")%s return $x`, t.Path())
		add("interval", t, `for $x in stream("s")//%s?[2004-06-01T02:00:00,now] return $x`, t.Name)
		add("version", t, `for $x in stream("s")//%s#[1,last] return $x`, t.Name)
		// constructor content is attached, not copied: the wrapped
		// subtree is shared with the store in every plan
		add("wrap", t, `for $x in stream("s")//%s return <w of="%s">{$x}</w>`, t.Name, t.Name)
		// element text is a number below 1000 (genElement)
		add("filter", t, `for $x in stream("s")//%s where $x/text() > 500 return $x/text()`, t.Name)
		add("sliding", t, `stream("s")//%s?[now-PT5H,now]`, t.Name)
		if fragTags == 1 {
			first = t
			g.genPredicates(add, t)
		}
		for _, c := range t.Children {
			if !c.IsFragmented() {
				continue
			}
			add("window-sum", t, `for $x in stream("s")//%s where sum($x/%s?[now-PT6H,now]/text()) >= 400 return $x/text()`, t.Name, c.Name)
			add("window-children", t, `for $x in stream("s")//%s return $x/%s?[now-PT4H,now-PT1H]`, t.Name, c.Name)
			if parent == nil {
				parent, child = t, c
				g.genPositional(add, t, c)
			}
			break
		}
	}
	// note: a bare stream("s") is deliberately absent — the plans render
	// the document node differently (a known, pre-existing divergence);
	// the equivalence claim is about element selections
	qs = append(qs, Query{Name: "root-count", Src: fmt.Sprintf(`count(stream("s")/%s)`, s.Root.Name)})
	if parent != nil {
		// the child positions again, taken from each version a for clause
		// binds: they count within that version, however many other
		// versions hold the same children. Last, so that the queries
		// before them keep their places in the list.
		add("each-first", parent, `for $x in stream("s")//%s return $x/%s[1]`, parent.Name, child.Name)
		add("each-last", parent, `for $x in stream("s")//%s return $x/%s[last()]`, parent.Name, child.Name)
	}
	// the first event tag's versions read by tsid under a window that ends
	// before now, wrapped so that no per-binding unit reads them filler by
	// filler: a standing result whose versions leave the window as the
	// clock moves on, and which a version about to enter it must schedule
	for _, t := range s.Tags() {
		if t.IsFragmented() && t.Type == tagstruct.Event {
			add("past-window", t, `<w>{stream("s")//%s?[now-PT4H,now-PT1H]}</w>`, t.Name)
			break
		}
	}
	// projections that follow no step, which no read takes as its bound:
	// the fragment plans' projection calls over built nodes and CaQ's own
	if first != nil {
		all := `stream("s")//` + first.Name
		add("each-interval", first, `for $x in %s return $x?[2004-06-01T02:00:00,now]`, all)
		add("each-versions", first, `for $x in %s return $x#[1,last]`, all)
		add("each-newest", first, `for $x in %s return $x#[last]`, all)
		add("twice-sliding", first, `(%s, %s)?[now-PT5H,now]`, all, all)
	}
	return qs
}

// genPositional adds, for a fragmented tag t with a fragmented child c,
// positional predicates on the child step from every version of every t —
// a base of many nodes, whose predicates count within each of them: the
// positions a read's window serves, one it does not, and a position before
// and after a filter the translator pushes below the read.
func (g *gen) genPositional(add func(kind string, t *tagstruct.Tag, format string, args ...any), t, c *tagstruct.Tag) {
	kids := `stream("s")//` + t.Name + "/" + c.Name
	add("child-first", t, `%s[1]`, kids)
	add("child-last", t, `for $x in %s[last()] return $x/text()`, kids)
	add("child-upto", t, `count(stream("s")%s[position() <= 2])`, c.Path())
	add("child-second", t, `%s[position() = 2]`, kids)
	add("child-then-first", t, `%s[@k != 3][1]`, kids)
	add("child-first-then", t, `%s[1][@k != 3]`, kids)
}

// genPredicates adds, for one fragmented tag, step predicates and where
// clauses over numbered's attributes and the tag's children. The first
// group is what xcql's translator pushes below the access path — an
// attribute or an inline child against a literal of each class, in either
// order, conjoined, matched by several children; the second is what it
// must leave to the evaluator — the lifespan a read stamps, a child behind
// a hole, positions, a disjunction, a predicate on a projection's output.
// Either way every plan must agree with CaQ, which has no access path to
// push anything below.
func (g *gen) genPredicates(add func(kind string, t *tagstruct.Tag, format string, args ...any), t *tagstruct.Tag) {
	all := `stream("s")//` + t.Name
	add("attr-eq", t, `for $x in %s[@tier = "t1"] return $x`, all)
	add("attr-ne", t, `for $x in stream("s")%s[@k != 3] return $x`, t.Path())
	add("attr-date", t, `%s[@at >= 2004-06-01T12:00:00]`, all)
	add("attr-padded", t, `%s[@pad = 2]`, all)
	add("where-two", t, `for $x in %s where 2 <= $x/@k and $x/@tier != "t2" return $x/text()`, all)
	add("where-partly", t, `for $x in %s where $x/@k < 5 and string-length($x/@tier) = 2 return $x`, all)
	add("then-first", t, `%s[@k != 3][1]`, all)

	add("lifespan-from", t, `%s[@vtFrom <= "2004-06-01T05:00:00"]`, all)
	add("lifespan-to", t, `%s[@vtTo = "now"]`, all)
	add("second", t, `%s[position() = 2][@k != 3]`, all)
	add("last", t, `%s[last()]`, all)
	add("either", t, `%s[@k = 1 or @tier = "t2"]`, all)
	add("projected", t, `%s?[2004-06-01T02:00:00,now][@k != 3]`, all)
	inline, behindHole := false, false
	for _, c := range t.Children {
		switch {
		case !c.IsFragmented() && !inline:
			inline = true
			add("child-lt", t, `%s[%s < 500]`, all, c.Name)
			add("where-child", t, `for $x in %s where $x/%s >= 250 return $x/%s`, all, c.Name, c.Name)
		case c.IsFragmented() && !behindHole:
			behindHole = true
			add("child-behind-hole", t, `%s[%s/@k >= 3]`, all, c.Name)
		}
	}
}
