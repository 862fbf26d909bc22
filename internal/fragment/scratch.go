package fragment

import "xcql/internal/xmldom"

// Scratch is a read's bookkeeping, kept from one evaluation to the next
// (DESIGN.md "What an evaluation allocates"): the notes a read takes of the
// versions it keeps before it builds them (keptVersion), the hole ids and
// groups a caller collects for a FromHoles read, and the list a read returns
// its versions in to a caller that copies them out (Read.Into). None of it
// outlives the read, or the caller's use of the ids or the list: what else
// a read returns is built anew.
// An owner that runs one evaluation after another hands each one the same
// Scratch through Eval.Scratch — one evaluation at a time.
//
// Every buffer is lent and given back: lending takes it out of the Scratch,
// so a read made while another is in progress (a projection resolving
// holes, a predicate's own call) finds none and allocates its own, and a
// buffer an evaluation abandons to a budget trip is merely not given back.
// A buffer given back past its cap is dropped, so that a large read does not
// stay resident in the Scratch. The zero Scratch is empty; a nil *Scratch
// lends nothing and keeps nothing.
type Scratch struct {
	notes  []keptVersion
	ids    []int
	groups []Group
	nodes  []*xmldom.Node
}

// The caps of the buffers a Scratch keeps, in elements: 16 KB of notes,
// 32 KB of ids, 40 KB of groups, 8 KB of nodes. Past them a read is large
// enough that allocating its bookkeeping is small beside what it reads. A
// store with history reaches them: XMark Q2's read ahead over an auction
// stream written beside the reads (bench/e2e's adhoc-under-ingest) groups
// 640 open_auction versions holding 2 747 hole ids by the end of its run.
const (
	keptNotes  = 1024
	keptIDs    = 4096
	keptGroups = 1024
	keptNodes  = 1024
)

// Nodes lends an empty list for a read to return its versions in
// (Read.Into), for a caller that copies them out; nil when there is none.
func (s *Scratch) Nodes() []*xmldom.Node {
	if s == nil {
		return nil
	}
	nodes := s.nodes
	s.nodes = nil
	return nodes
}

// GiveNodes hands back a list a read returned over what Nodes lent, or
// one the read allocated, cleared: a kept node would stay alive.
func (s *Scratch) GiveNodes(nodes []*xmldom.Node) {
	if s != nil && cap(nodes) <= keptNodes && cap(nodes) > cap(s.nodes) {
		clear(nodes)
		s.nodes = nodes[:0]
	}
}

// IDs lends an empty buffer for a read's hole ids, nil when there is none.
func (s *Scratch) IDs() []int {
	if s == nil {
		return nil
	}
	ids := s.ids
	s.ids = nil
	return ids
}

// GiveIDs hands back a buffer IDs lent, or one grown from it.
func (s *Scratch) GiveIDs(ids []int) {
	if s != nil && cap(ids) <= keptIDs && cap(ids) > cap(s.ids) {
		s.ids = ids[:0]
	}
}

// Groups lends an empty buffer for a read's groups, nil when there is none.
func (s *Scratch) Groups() []Group {
	if s == nil {
		return nil
	}
	groups := s.groups
	s.groups = nil
	return groups
}

// GiveGroups hands back a buffer Groups lent, or one grown from it.
func (s *Scratch) GiveGroups(groups []Group) {
	if s != nil && cap(groups) <= keptGroups && cap(groups) > cap(s.groups) {
		s.groups = groups[:0]
	}
}

// takeNotes lends an empty buffer for a read's notes, nil when there is
// none.
func (s *Scratch) takeNotes() []keptVersion {
	if s == nil {
		return nil
	}
	notes := s.notes
	s.notes = nil
	return notes
}

// giveNotes hands back a buffer takeNotes lent, or one grown from it,
// cleared: a kept note would keep its versions alive.
func (s *Scratch) giveNotes(notes []keptVersion) {
	if s != nil && cap(notes) <= keptNotes && cap(notes) > cap(s.notes) {
		clear(notes)
		s.notes = notes[:0]
	}
}
