// Package fragment implements the Hole-Filler model of §4: the unit of
// transfer in the stream is an XML fragment (a "filler") identified by a
// unique filler id, annotated with the tag-structure id (tsid) of its top
// element and the validTime of its generation. A filler's payload may
// contain <hole id="…" tsid="…"/> placeholders; a hole is filled by every
// filler carrying the same id, and multiple fillers with one id are the
// successive versions of that element.
//
// The package provides the wire representation, the fragmenter that cuts a
// document into fillers along the temporal/event tags of a Tag Structure,
// and the client-side Store whose reads (Access) realize the paper's
// get_fillers function (versions annotated with their deduced [vtFrom,
// vtTo] lifespans).
package fragment

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"xcql/internal/obs"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// RootFillerID is the reserved filler id of the document-root fragment;
// the paper's translations all start from get_fillers(0).
const RootFillerID = 0

// Wire element and attribute names.
const (
	FillerTag     = "filler"
	HoleTag       = "hole"
	AttrID        = "id"
	AttrTSID      = "tsid"
	AttrValidTime = "validTime"
	AttrSeq       = "seq"
	AttrTrace     = "trace"
	// AttrBase and AttrKept mark a delta frame: the validTime of the
	// version of the filler it extends, and how many of that version's
	// payload children it keeps (see SealedOver).
	AttrBase = "base"
	AttrKept = "kept"
)

// MissingPredecessorError is what a delta frame comes to where the version
// it extends is not at hand: a decode with no store to link it to, or a
// store that does not hold that version. A delta is a version only over its
// predecessor, so nothing is built in its place; a stream client counts
// the frame as a gap.
type MissingPredecessorError struct {
	FillerID int
	// Predecessor is the validTime of the version the frame extends, and
	// Kept how many of its payload children the frame keeps.
	Predecessor time.Time
	Kept        int
}

func (e *MissingPredecessorError) Error() string {
	return fmt.Sprintf("fragment: delta frame of filler %d extends its version at %s (%d children), which is not at hand",
		e.FillerID, e.Predecessor.UTC().Format(xtime.Layout), e.Kept)
}

// Fragment is one filler as it travels on the stream.
type Fragment struct {
	FillerID  int
	TSID      int
	ValidTime time.Time
	// Seq is the per-stream delivery sequence number stamped by the
	// publishing server (1, 2, 3, …). Zero means "unsequenced" — the
	// fragment has not passed through a server yet — and is omitted from
	// the wire form. Clients use the sequence to detect gaps and
	// duplicates on lossy transports; it is transport metadata, not part
	// of the Hole-Filler identity (FillerID/TSID/ValidTime).
	Seq uint64
	// PublishedAt is the local wall-clock instant the publishing server
	// stamped the fragment — transport metadata for delivery-latency
	// measurement, like Seq. Zero means the fragment never passed
	// through an in-process server. It is not part of the wire form
	// (clock domains differ across hosts), so it does not survive TCP.
	PublishedAt time.Time
	// Trace is the distributed-tracing context stamped at Publish, the
	// zero value when untraced. Unlike PublishedAt it IS on the wire
	// (AttrTrace, optional — absent on legacy peers): a trace id is a
	// pure correlation token, so accepting one from a peer only decides
	// which trace downstream spans join, while every latency the flight
	// recorder reports comes from its own local clock. Transport
	// metadata, not part of the Hole-Filler identity.
	Trace obs.TraceContext
	// Payload is the single element carried by a filler built in memory
	// (New, FromXML). It is immutable from the moment the fragment is
	// built: stores, indexes and query results all share its
	// subtrees, so nobody — not even the publisher that built it — may
	// write it afterwards. Clone it to get a tree to change. A version a
	// store built over its predecessor (Store.Add) holds its tree here. A
	// fragment decoded from a frame leaves it nil and builds its payload
	// when something first reads it: Tree reads either kind.
	Payload *xmldom.Node

	// enc is the fragment's wire form, or the frame it was decoded from
	// (see encoding, and the "Wire codec" section of DESIGN.md).
	enc encoding
}

// encoding is what a fragment carries besides its stamps and Payload, in
// the two words of a string: nothing; the bytes of its wire form, which
// Sealed renders (n > 0); on a fragment decoded from a frame, its lazy
// state (decodedWire, decodedOnly); or, on a version a store built in
// memory over its predecessor (storedOver), its link (builtOver). A
// fragment built in memory — and every copy a publish makes of one — is
// thus no larger for what a decoded or linked fragment keeps.
type encoding struct {
	p unsafe.Pointer // the wire form's first byte, the *lazy or the *linkedVersion
	n int            // the wire form's length, or decodedWire, decodedOnly or builtOver
}

const (
	// decodedWire: the lazy state's src is the fragment's wire form.
	decodedWire = -1
	// decodedOnly: src does not spell the fragment's stamps — a copy
	// restamped it, or it was parsed from text that need not be a wire
	// form — so the fragment has no wire form.
	decodedOnly = -2
	// builtOver: p is the linkedVersion of a version built in memory over
	// its predecessor (storedOver); its payload is Payload.
	builtOver = -3
)

// sealed is the encoding of a fragment whose wire form is wire.
func sealed(wire string) encoding {
	return encoding{unsafe.Pointer(unsafe.StringData(wire)), len(wire)}
}

// wire returns the wire form the fragment carries, "" when it has none.
func (e encoding) wire() string {
	switch {
	case e.n > 0:
		return unsafe.String((*byte)(e.p), e.n)
	case e.n == decodedWire:
		return (*lazy)(e.p).src
	}
	return ""
}

// lazy returns a decoded fragment's state, nil for one built in memory.
func (e encoding) lazy() *lazy {
	if e.n == decodedWire || e.n == decodedOnly {
		return (*lazy)(e.p)
	}
	return nil
}

// restamped is the encoding of a copy with other stamps: the decoded state
// without a wire form, the link, which names no stamp, or nothing.
func (e encoding) restamped() encoding {
	switch e.n {
	case decodedWire, decodedOnly:
		return encoding{e.p, decodedOnly}
	case builtOver:
		return e
	}
	return encoding{}
}

// lazy is what a fragment decoded from a frame keeps of it: the frame,
// where the payload's tag is in it, the holes the payload announces, and —
// from the first read on — the payload tree, built once: concurrent first
// reads race to publish theirs, and every reader gets the one that won.
//
// A delta frame (see SealedOver) carries only the children its version
// appends to its predecessor's: it is a version once linked to that one
// (linkTo), and until then announces no hole and builds no tree.
type lazy struct {
	tree atomic.Pointer[xmldom.Node]
	// src is the <filler> element as it arrived, or the stored frame
	// (ParseStored), or the parsed text (Parse).
	src string
	// holes is the payload's hole pairs, (id, tsid) as little-endian
	// int32s; a length that is not a multiple of 8 says a number did not
	// fit, and EachHole asks the tree. A delta's are its appended
	// children's; its whole list is its link's.
	holes string
	tag   [2]int32 // src[tag[0]:tag[1]] is the payload's tag
	// kids is how many children the frame's payload element has; kept is
	// how many of its predecessor's a delta keeps before them, -1 on a
	// full frame.
	kids, kept int32
	// base is the UnixNano of a delta's predecessor's validTime.
	base int64
	// one holds the hole list of a payload that announces exactly one
	// hole, so that decoding it allocates no list of its own.
	one [8]byte
	// link is a delta's link to its predecessor, nil until linkTo.
	link atomic.Pointer[link]
}

// link is what a version extending its predecessor records of it — a
// delta frame once linked, or a version a store built in memory over the
// one before (storedOver) —, whole before anyone sees it.
type link struct {
	prev *Fragment
	// holes is the whole hole list: prev's, then the version's own, a
	// prefix of run's array.
	holes string
	run   *holeRun
}

// linked returns the link of a version linked to the one it extends,
// how many of that one's payload children it keeps, and its own hole
// pairs — those of its appended children; a list that is not whole pairs
// says a number did not fit, and the tree is asked. It returns nil for a
// version with no link.
func (f *Fragment) linked() (l *link, kept int, own string) {
	if f.enc.n == builtOver {
		v := (*linkedVersion)(f.enc.p)
		return &v.l, v.kept, v.own
	}
	if lz := f.enc.lazy(); lz != nil && lz.delta() {
		if l := lz.link.Load(); l != nil {
			return l, int(lz.kept), lz.holes
		}
	}
	return nil, 0, ""
}

// delta reports whether the state is a delta frame's.
func (lz *lazy) delta() bool { return lz.kept >= 0 }

// decoded is a decoded fragment and its lazy state, in one allocation.
type decoded struct {
	Fragment
	lz lazy
}

// New builds a fragment around payload, which the fragment shares rather
// than copies: the caller must not write it afterwards.
func New(fillerID, tsid int, validTime time.Time, payload *xmldom.Node) *Fragment {
	return &Fragment{FillerID: fillerID, TSID: tsid, ValidTime: validTime, Payload: payload}
}

// WithSeq returns a shallow copy of f stamped with the given sequence
// number. The payload is shared (fragments are read-only once published),
// so stamping is cheap enough to do once per Publish. The copy has no wire
// form yet: the one f may carry spells out f's stamps.
func (f *Fragment) WithSeq(seq uint64) *Fragment {
	g := *f
	g.Seq = seq
	g.enc = f.enc.restamped()
	return &g
}

// WithTrace returns a shallow copy of f stamped with the given trace
// context (payload shared and wire form dropped, like WithSeq).
func (f *Fragment) WithTrace(tc obs.TraceContext) *Fragment {
	g := *f
	g.Trace = tc
	g.enc = f.enc.restamped()
	return &g
}

// Sealed returns a shallow copy of f carrying its wire form, rendered once:
// String on the copy returns those bytes instead of encoding again, so a
// durable log and any number of sockets write one encoding. It is the last
// step of publishing, after every stamp is on — the copy's stamps must not
// change afterwards (WithSeq and WithTrace return unsealed copies). The
// copy of a decoded fragment carries the tree its bytes were encoded from
// as its Payload.
func (f *Fragment) Sealed() *Fragment {
	g := *f
	g.Payload = f.Tree()
	g.enc = sealed(f.String())
	return &g
}

// SealedOver is Sealed for a fragment whose filler's version published
// before it is prev. When f's payload is prev's with children appended —
// same name and attributes, prev's children first, f dated later — and the
// boundary leaves nothing for a parser to merge (no empty text child, no
// two text children side by side), the copy's wire form is a delta frame:
// the stamps, prev's validTime (AttrBase) and how many children it keeps
// (AttrKept), and a payload element with neither attributes nor any child
// but the appended ones. A receiver holding prev builds from it the tree
// the full form spells; one that does not gets a
// *MissingPredecessorError. Otherwise, or with no prev, the copy carries
// the full form. It reports which.
func (f *Fragment) SealedOver(prev *Fragment) (*Fragment, bool) {
	kept, ok := f.extends(prev)
	if !ok {
		return f.Sealed(), false
	}
	g := *f
	g.Payload = f.Tree()
	g.enc = sealed(f.deltaString(prev.ValidTime, kept))
	return &g, true
}

// extends reports whether f's payload is prev's with children appended,
// in a form SealedOver can send as a delta, and how many children of
// prev's it keeps.
func (f *Fragment) extends(prev *Fragment) (int, bool) {
	if prev == nil || prev.FillerID != f.FillerID || prev.TSID != f.TSID || !wireTime(prev.ValidTime) ||
		!wireTime(f.ValidTime) || !f.ValidTime.Truncate(time.Second).After(prev.ValidTime.Truncate(time.Second)) {
		return 0, false
	}
	p, b := f.Tree(), prev.Tree()
	if p == nil || b == nil || p.Type != xmldom.ElementNode || b.Type != xmldom.ElementNode || p.Name != b.Name ||
		len(b.Children) == 0 || len(p.Children) < len(b.Children) || len(p.Attrs) != len(b.Attrs) {
		return 0, false
	}
	for i := range p.Attrs {
		if p.Attrs[i] != b.Attrs[i] {
			return 0, false
		}
	}
	for i, c := range p.Children {
		if c.Type == xmldom.TextNode && (c.Data == "" || i > 0 && p.Children[i-1].Type == xmldom.TextNode) {
			return 0, false
		}
		if i < len(b.Children) && c != b.Children[i] && !c.Equal(b.Children[i]) {
			return 0, false
		}
	}
	return len(b.Children), true
}

// wireTime reports whether t is an instant a delta frame can name: its
// second, as the wire spells it, has a UnixNano.
func wireTime(t time.Time) bool {
	y := t.UTC().Year()
	return y > 1678 && y < 2262
}

// deltaString is the delta frame SealedOver seals f with: f's payload
// past the first kept children, over its predecessor dated prevAt.
func (f *Fragment) deltaString(prevAt time.Time, kept int) string {
	var buf [wireHeadMax + 64]byte // stays on the stack: only its bytes are copied out
	head := f.appendHead(buf[:0])
	head = append(head, `" `+AttrBase+`="`...)
	head = prevAt.UTC().AppendFormat(head, xtime.Layout)
	head = append(head, `" `+AttrKept+`="`...)
	head = strconv.AppendInt(head, int64(kept), 10)
	p := f.Tree()
	own := p.Children[kept:]
	size := len(head) + len(`"><`) + len(p.Name) + len(`/></`+FillerTag+`>`)
	if len(own) > 0 {
		size += len(`></`) + len(p.Name)
		for _, c := range own {
			size += c.EncodedLen()
		}
	}
	b := append(make([]byte, 0, size), head...)
	b = append(append(b, `"><`...), p.Name...)
	if len(own) == 0 {
		b = append(b, `/>`...)
	} else {
		b = append(b, '>')
		for _, c := range own {
			b = c.AppendTo(b)
		}
		b = append(append(append(b, `</`...), p.Name...), '>')
	}
	b = append(b, `</`+FillerTag+`>`...)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Tree returns the fragment's payload element: Payload for a fragment
// built in memory; for one decoded from a frame, the tree built from the
// frame on the first call — one tree, however many goroutines ask first.
// It is immutable, like Payload. A delta frame's is built over its
// predecessor's tree, and an unlinked delta has none: Tree returns nil.
func (f *Fragment) Tree() *xmldom.Node {
	lz := f.enc.lazy()
	if lz == nil {
		return f.Payload
	}
	if t := lz.tree.Load(); t != nil {
		return t
	}
	if !lz.delta() {
		return lz.publish(lz.build())
	}
	l := lz.link.Load()
	if l == nil {
		return nil
	}
	return lz.publish(lz.over(l.prev))
}

// publish makes t the payload tree, unless a racing first read published
// one before it, and returns the one published.
func (lz *lazy) publish(t *xmldom.Node) *xmldom.Node {
	if !lz.tree.CompareAndSwap(nil, t) {
		return lz.tree.Load()
	}
	return t
}

// builders are the decoders first reads build payloads with.
var builders = sync.Pool{New: func() any { return new(xmldom.Decoder) }}

// payload scans src again, as its decode did, and hands fn the payload
// element in a pooled decoder's scratch.
func (lz *lazy) payload(fn func(xmldom.Scanned) *xmldom.Node) *xmldom.Node {
	d := builders.Get().(*xmldom.Decoder)
	defer builders.Put(d)
	defer d.Reset()
	el, err := d.Scan(lz.src)
	if err != nil {
		// src scanned once without an error, and scanning is deterministic
		panic(fmt.Sprintf("fragment: a decoded frame no longer scans: %v", err))
	}
	payload, _ := el.OnlyElement()
	return fn(payload)
}

// build builds a full frame's payload.
func (lz *lazy) build() *xmldom.Node {
	return lz.payload(xmldom.Scanned.Build)
}

// over builds a delta's payload over its predecessor prev's tree: prev's
// attributes, and as children prev's — its childless holes the very nodes,
// a hole being no item of any plan, and every other child a copy, since a
// node an evaluation can return is one version's alone — followed by the
// children the frame carries. Only those and the copies are built: no hole
// of a re-announced parent is built twice. A predecessor that is itself an
// unbuilt delta is not built for it: the children the unbuilt deltas below
// add are built from their frames for this version alone, after the
// children of the first built version, or full form, under them. So a
// version's first read costs its own history at most once, however deep
// the unbuilt chain below it.
func (lz *lazy) over(prev *Fragment) *xmldom.Node {
	var few [8]*lazy
	below := few[:0] // the unbuilt deltas under lz, newest first
	for b := prev.enc.lazy(); b != nil && b.delta() && b.tree.Load() == nil; b = prev.enc.lazy() {
		below = append(below, b)
		prev = b.link.Load().prev
	}
	base := prev.Tree()
	kids, shared := base.Children, len(base.Children)
	if len(below) > 0 {
		kids = make([]*xmldom.Node, 0, lz.kept)
		kids = append(kids, base.Children...)
		for i := len(below) - 1; i >= 0; i-- {
			kids = append(kids, below[i].payload(xmldom.Scanned.Build).Children...)
		}
	}
	share := func(i int, n *xmldom.Node) bool { return i >= shared || sharedHole(n) }
	return lz.payload(func(payload xmldom.Scanned) *xmldom.Node {
		return payload.BuildAfter(base.Attrs, kids, share)
	})
}

// sharedHole reports whether a version built over its predecessor holds
// the predecessor's node n itself: a hole with nothing in it.
func sharedHole(n *xmldom.Node) bool { return IsHole(n) && len(n.Children) == 0 }

// holeRun is a byte array the hole lists of one filler's versions share,
// each list a prefix of it: a version whose predecessor's list ends where
// the array's claimed part does claims the bytes after it for its own
// pairs, and any other starts an array of its own. No byte is written after
// it is claimed and filled, so no list a reader holds changes.
type holeRun struct {
	used atomic.Int64
	buf  []byte // its length is its capacity
}

// extend returns prev's hole list followed by own, and the run the list
// is a prefix of: prev's run r, when prev is the prefix of r's array that
// r's claimed part ends at and the array has the room, a new run
// otherwise.
func extend(r *holeRun, prev, own string) (string, *holeRun) {
	n := len(prev) + len(own)
	if r == nil || prev == "" || n > len(r.buf) || unsafe.StringData(prev) != &r.buf[0] ||
		!r.used.CompareAndSwap(int64(len(prev)), int64(n)) {
		r = &holeRun{buf: make([]byte, max(2*n, 64))}
		copy(r.buf, prev)
		r.used.Store(int64(n))
	}
	copy(r.buf[len(prev):n], own)
	return unsafe.String(&r.buf[0], n), r
}

// linkTo links the delta f to prev, the version it extends: the filler's
// version dated the frame's base validTime, carrying its tsid and as many
// payload children as the frame keeps, a full form or a linked delta. A
// version that is not that one is a *MissingPredecessorError. From then on
// f announces prev's holes and then its own, and builds its tree over
// prev's. A delta linked before — to a version of another store, the same
// version — stays as it is; a full form has nothing to link.
func (f *Fragment) linkTo(prev *Fragment) error {
	lz := f.enc.lazy()
	if lz == nil || !lz.delta() {
		return nil
	}
	if !lz.extends(f, prev) {
		return f.missingPredecessor()
	}
	if lz.link.Load() != nil {
		return nil
	}
	l := &link{prev: prev}
	l.chain(prev, lz.holes)
	lz.link.CompareAndSwap(nil, l) // a racing link of the same frame to the same version may win
	return nil
}

// chain makes l's hole list prev's followed by own, the version's own
// pairs, on prev's run where it can, or a list that is not whole pairs
// ("?": EachHole asks the tree) when either is not.
func (l *link) chain(prev *Fragment, own string) {
	l.holes = "?"
	if holes, r := prevHoles(prev); len(holes)%8 == 0 && len(own)%8 == 0 {
		l.holes, l.run = extend(r, holes, own)
	}
}

// linkedVersion is a version a store built in memory over its predecessor:
// the fragment, its link, how many of the predecessor's children it keeps,
// its own hole pairs (as lazy.holes keeps a delta's) and its payload's top.
type linkedVersion struct {
	Fragment
	l    link
	kept int
	own  string
	top  xmldom.Node
}

// versionArena is what a store carves the versions it builds in memory
// from (storedOver): arrays sized for many versions, each version one
// element of the first and its child list a capacity-clipped window of the
// second, so that storing a re-announcement allocates nothing of its own
// on most Adds. A store drops no version it holds, so an array lives as
// long as the versions carved from it would.
type versionArena struct {
	versions []linkedVersion
	kids     []*xmldom.Node
}

func (a *versionArena) version() *linkedVersion {
	if len(a.versions) == cap(a.versions) {
		a.versions = make([]linkedVersion, 0, 64)
	}
	a.versions = a.versions[:len(a.versions)+1]
	return &a.versions[len(a.versions)-1]
}

func (a *versionArena) children(n int) []*xmldom.Node {
	if cap(a.kids)-len(a.kids) < n {
		a.kids = make([]*xmldom.Node, 0, max(4096, 8*n))
	}
	from := len(a.kids)
	a.kids = a.kids[:from+n]
	return a.kids[from : from+n : from+n]
}

// storedOver returns what a store keeps of f, built in memory, when prev is
// its filler's newest stored version and given the fragment prev was added
// as (Store.added): prev itself, or the payload a version the store built
// over its predecessor was built from, whose tree equals prev's. When f's
// payload extends given's (extends, the test SealedOver seals a delta by),
// it is a new fragment linked to prev as a delta decoded over prev is: it
// records prev, how many of prev's children it keeps and its hole list —
// prev's, then its appended children's, on prev's run —, and its payload
// holds prev's childless holes themselves, as lazy.over shares them, and
// f's other children. Its stamps are f's, and its String is f's full form.
// f itself, which a publisher may hand to several stores, is not written.
// Otherwise it returns f. The new version is carved from a.
func (f *Fragment) storedOver(prev, given *Fragment, a *versionArena) *Fragment {
	kept, ok := f.extends(given)
	if !ok {
		return f
	}
	p, b := f.Tree(), prev.Tree()
	kids := a.children(len(p.Children))
	for i, c := range p.Children {
		// a kept child equals prev's (extends): f's own tells whether
		// prev's is a childless hole, and prev's is not read
		if i < kept && sharedHole(c) {
			c = b.Children[i]
		}
		kids[i] = c
	}
	v := a.version()
	v.Fragment = *f
	v.top = xmldom.Node{Type: p.Type, Name: p.Name, Attrs: b.Attrs, Children: kids}
	v.Payload = &v.top
	var buf [8 * 8]byte
	own, fits := buf[:0], true
	for _, c := range p.Children[kept:] {
		treeHoles(c, func(id, tsid int) bool {
			own, fits = appendHole(own, id, tsid, fits)
			return true
		})
	}
	v.l, v.kept, v.own = link{prev: prev}, kept, "?"
	if fits {
		// chain copies the pairs out of buf
		v.l.chain(prev, unsafe.String(unsafe.SliceData(own), len(own)))
		if len(v.l.holes)%8 == 0 {
			v.own = v.l.holes[len(v.l.holes)-len(own):]
		}
	}
	v.enc = encoding{unsafe.Pointer(v), builtOver}
	return &v.Fragment
}

// extends reports whether prev is the version the delta f extends.
func (lz *lazy) extends(f, prev *Fragment) bool {
	if prev == nil || prev == f || prev.FillerID != f.FillerID || prev.TSID != f.TSID ||
		prev.ValidTime.Truncate(time.Second).UnixNano() != lz.base {
		return false
	}
	kids := -1
	switch b := prev.enc.lazy(); {
	case b == nil:
		if prev.Payload != nil {
			kids = len(prev.Payload.Children)
		}
	case !b.delta():
		kids = int(b.kids)
	case b.link.Load() != nil:
		kids = int(b.kept + b.kids)
	}
	return kids == int(lz.kept)
}

// prevHoles returns a version's hole list as lazy.holes keeps it, and the
// run it is a prefix of.
func prevHoles(prev *Fragment) (string, *holeRun) {
	if l, _, _ := prev.linked(); l != nil {
		return l.holes, l.run
	} else if b := prev.enc.lazy(); b != nil {
		return b.holes, nil
	}
	var pairs []byte
	fits := true
	prev.EachHole(func(id, tsid int) bool {
		pairs, fits = appendHole(pairs, id, tsid, fits)
		return true
	})
	if !fits {
		return "?", nil
	}
	return string(pairs), nil
}

// appendHole appends a hole's (id, tsid) pair as lazy.holes keeps it, and
// reports whether the list so far, fits, still holds whole pairs.
func appendHole(pairs []byte, id, tsid int, fits bool) ([]byte, bool) {
	fits = fits && id == int(int32(id)) && tsid == int(int32(tsid))
	pairs = binary.LittleEndian.AppendUint32(pairs, uint32(id))
	return binary.LittleEndian.AppendUint32(pairs, uint32(tsid)), fits
}

// missingPredecessor is the error of a delta f whose predecessor is not at
// hand.
func (f *Fragment) missingPredecessor() error {
	lz := f.enc.lazy()
	return &MissingPredecessorError{FillerID: f.FillerID, Predecessor: time.Unix(0, lz.base).UTC(), Kept: int(lz.kept)}
}

// Chains links the delta frames of a log read in the order it was written
// (Link): each extends the version of its filler written last before it,
// as the server that sealed it (SealedOver) published them. It keeps the
// last version of each filler read.
type Chains struct {
	last map[int]*Fragment
}

// Link links f, the next fragment of the log, when it is a delta frame, to
// the version of its filler read last before it, or returns a
// *MissingPredecessorError when that is not the version f extends — lost
// to a torn or corrupt frame, say: f is then no version, and Tree returns
// nil for it. Either way f is the filler's last version from here on.
func (c *Chains) Link(f *Fragment) error {
	var err error
	if f.IsDelta() {
		err = f.linkTo(c.last[f.FillerID])
	}
	if c.last == nil {
		c.last = make(map[int]*Fragment)
	}
	c.last[f.FillerID] = f
	return err
}

// AnnouncesHole reports whether f's payload announces a hole: whether its
// filler's next version may be sealed as a delta over it.
func (f *Fragment) AnnouncesHole() bool {
	any := false
	f.EachHole(func(int, int) bool { any = true; return false })
	return any
}

// IsDelta reports whether f was decoded from a delta frame (SealedOver):
// a version only once linked to the one it extends.
func (f *Fragment) IsDelta() bool {
	lz := f.enc.lazy()
	return lz != nil && lz.delta()
}

// Predecessor returns, for a version linked to the one it extends — a
// delta frame a store or Chains linked, or a version a store built in
// memory over its filler's newest (Store.Add) —, that version and how
// many of its payload children the version keeps before its own; nil and
// 0 otherwise.
func (f *Fragment) Predecessor() (*Fragment, int) {
	if l, kept, _ := f.linked(); l != nil {
		return l.prev, kept
	}
	return nil, 0
}

// EachHole calls yield with the id and tsid of every hole f's payload
// announces, in document order, until yield returns false: a hole's own
// content is not searched, a hole whose id does not parse is skipped, and
// one without a tsid that parses has tsid 0. A decoded or linked fragment
// answers from the list its decode or link collected, and builds nothing;
// an unlinked delta announces none.
func (f *Fragment) EachHole(yield func(id, tsid int) bool) {
	l, _, _ := f.linked()
	lz := f.enc.lazy()
	switch {
	case l != nil && eachPair(l.holes, yield):
	case l == nil && lz != nil && lz.delta(): // unlinked
	case l == nil && lz != nil && eachPair(lz.holes, yield):
	default:
		if p := f.Tree(); p != nil {
			treeHoles(p, yield)
		}
	}
}

// EachNewHole calls yield with the id and tsid of every hole f announces
// beyond the ones its predecessor (Predecessor) does, in document order,
// until yield returns false: for a linked version, those of its appended
// children — from its own pairs, or, when a number did not fit in them,
// from its tree —; for a version with none, every hole EachHole yields.
func (f *Fragment) EachNewHole(yield func(id, tsid int) bool) {
	l, kept, own := f.linked()
	if l == nil {
		f.EachHole(yield)
		return
	}
	if eachPair(own, yield) {
		return
	}
	for _, c := range f.Tree().Children[kept:] {
		if !treeHoles(c, yield) {
			return
		}
	}
}

// eachPair calls yield with each (id, tsid) pair of a hole list as
// lazy.holes keeps it, until yield returns false, and reports true; when
// the list is not whole pairs it yields nothing and reports false.
func eachPair(holes string, yield func(id, tsid int) bool) bool {
	if len(holes)%8 != 0 {
		return false
	}
	for h := holes; h != ""; h = h[8:] {
		if !yield(int(int32(le32(h))), int(int32(le32(h[4:])))) {
			break
		}
	}
	return true
}

// treeHoles is EachHole over a built tree; it reports whether yield wants
// more.
func treeHoles(n *xmldom.Node, yield func(id, tsid int) bool) bool {
	if IsHole(n) {
		id, err := HoleID(n)
		return err != nil || yield(id, HoleTSID(n))
	}
	for _, c := range n.Children {
		if !treeHoles(c, yield) {
			return false
		}
	}
	return true
}

// le32 reads the little-endian uint32 s starts with.
func le32(s string) uint32 {
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// payloadTag returns the tag of f's payload element — off the frame, for a
// decoded fragment — and false when f carries no payload.
func (f *Fragment) payloadTag() (string, bool) {
	if lz := f.enc.lazy(); lz != nil {
		return lz.src[lz.tag[0]:lz.tag[1]], true
	}
	if f.Payload == nil {
		return "", false
	}
	return f.Payload.Name, true
}

// ToXML renders the wire form
// <filler id="…" tsid="…" validTime="…" seq="…">payload</filler>.
// The seq attribute is present only on sequenced fragments. The wrapper
// element is new; the payload under it is the fragment's own, shared.
func (f *Fragment) ToXML() *xmldom.Node {
	el := xmldom.NewElement(FillerTag)
	el.SetAttr(AttrID, strconv.Itoa(f.FillerID))
	el.SetAttr(AttrTSID, strconv.Itoa(f.TSID))
	el.SetAttr(AttrValidTime, f.ValidTime.UTC().Format(xtime.Layout))
	if f.Seq > 0 {
		el.SetAttr(AttrSeq, strconv.FormatUint(f.Seq, 10))
	}
	if f.Trace.Valid() {
		el.SetAttr(AttrTrace, f.Trace.String())
	}
	if p := f.Tree(); p != nil {
		el.AppendChild(p)
	}
	return el
}

// String returns the compact wire form: the one the fragment carries when
// it has been sealed or was decoded from a frame — the frame as it
// arrived —, a fresh encoding otherwise, byte for byte what
// ToXML().String() spells, written once into an allocation of its exact
// size.
func (f *Fragment) String() string {
	if w := f.enc.wire(); w != "" {
		return w
	}
	var buf [wireHeadMax]byte // stays on the stack: only its bytes are copied out
	head := f.appendHead(buf[:0])
	payload := f.Tree()
	size := len(head) + len(`"/>`)
	if payload != nil {
		size = len(head) + len(`"></`+FillerTag+`>`) + payload.EncodedLen()
	}
	b := appendTail(append(make([]byte, 0, size), head...), payload)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// wireHeadMax bounds appendHead's output: the tag, five attribute names,
// two ints, a uint, a dateTime and a trace context.
const wireHeadMax = 192

// appendHead appends the <filler …> start tag from the stamps, up to the
// last attribute value's closing quote, which appendTail writes.
func (f *Fragment) appendHead(dst []byte) []byte {
	dst = append(dst, `<`+FillerTag+` `+AttrID+`="`...)
	dst = strconv.AppendInt(dst, int64(f.FillerID), 10)
	dst = append(dst, `" `+AttrTSID+`="`...)
	dst = strconv.AppendInt(dst, int64(f.TSID), 10)
	dst = append(dst, `" `+AttrValidTime+`="`...)
	dst = f.ValidTime.UTC().AppendFormat(dst, xtime.Layout)
	if f.Seq > 0 {
		dst = append(dst, `" `+AttrSeq+`="`...)
		dst = strconv.AppendUint(dst, f.Seq, 10)
	}
	if f.Trace.Valid() {
		dst = append(dst, `" `+AttrTrace+`="`...)
		dst = append(dst, f.Trace.String()...)
	}
	return dst
}

// appendTail closes the start tag appendHead left open and appends the
// payload through the serializer, no wrapper element built.
func appendTail(dst []byte, payload *xmldom.Node) []byte {
	if payload == nil {
		return append(dst, `"/>`...)
	}
	dst = payload.AppendTo(append(dst, `">`...))
	return append(dst, `</`+FillerTag+`>`...)
}

// FromXML parses a <filler> element into a Fragment. The payload is el's
// child element itself, not a copy: el belongs to the fragment from here
// on and the caller must not write it.
func FromXML(el *xmldom.Node) (*Fragment, error) {
	if el == nil {
		return nil, fmt.Errorf("fragment: expected <%s>, got nil", FillerTag)
	}
	var payload *xmldom.Node
	kids := 0
	for _, c := range el.Children {
		if c.Type == xmldom.ElementNode {
			payload = c
			kids++
		}
	}
	f := new(Fragment)
	if err := fromWrapper(f, el.Name, el.Attrs, kids); err != nil {
		return nil, err
	}
	if base, kept, delta, err := deltaOf(f, el.Attrs); err != nil {
		return nil, err
	} else if delta && len(payload.Attrs) > 0 {
		return nil, errDeltaAttrs(f.FillerID)
	} else if delta {
		return nil, &MissingPredecessorError{FillerID: f.FillerID, Predecessor: time.Unix(0, base).UTC(), Kept: kept}
	}
	f.Payload = payload
	return f, nil
}

// FromScanned is FromXML for a <filler> element held in an xmldom.Decoder's
// scratch, and builds nothing. The wrapper's stamps are read there, by the
// code that reads FromXML's and with the same errors; the payload's holes
// are collected in the same scan; and the fragment keeps the element's
// text — its wire form, without whatever followed it in the input — to
// build the payload from when something first reads it (Tree). A delta
// frame decodes too, into a fragment that is a version once a Store links
// it to the one it extends (Store.Add).
func FromScanned(el xmldom.Scanned) (*Fragment, error) {
	from, _ := el.Span()
	return decode(el, el.Source(), from)
}

// decode makes the fragment of a scanned <filler> element whose text sits
// in src from base on: the stamps read off the scan, the holes collected,
// the payload left as text.
func decode(el xmldom.Scanned, src string, base int) (*Fragment, error) {
	payload, kids := el.OnlyElement()
	var f Fragment
	if err := fromWrapper(&f, el.Name(), el.Attrs(), kids); err != nil {
		return nil, err
	}
	prevAt, kept, delta, err := deltaOf(&f, el.Attrs())
	if err != nil {
		return nil, err
	}
	if delta && len(payload.Attrs()) > 0 {
		return nil, errDeltaAttrs(f.FillerID)
	}
	d := &decoded{Fragment: f}
	from, _ := payload.Span()
	tag := int32(from-base) + 1
	d.lz.src = src
	d.lz.holes = scanHoles(payload, &d.lz.one)
	d.lz.tag = [2]int32{tag, tag + int32(len(payload.Name()))}
	d.lz.kids, d.lz.kept = int32(payload.Children()), -1
	if delta {
		d.lz.base, d.lz.kept = prevAt, int32(kept)
	}
	d.enc = encoding{unsafe.Pointer(&d.lz), decodedWire}
	return &d.Fragment, nil
}

// errDeltaAttrs refuses a delta frame whose payload element carries
// attributes: a delta's are its predecessor's.
func errDeltaAttrs(fid int) error {
	return fmt.Errorf("fragment: delta frame of filler %d carries payload attributes", fid)
}

// deltaOf reads a delta frame's AttrBase and AttrKept off the wrapper's
// attributes: the UnixNano of the validTime of the version it extends, and
// how many of that version's children it keeps; delta is false on a full
// frame.
func deltaOf(f *Fragment, attrs []xmldom.Attr) (prevAt int64, kept int, delta bool, err error) {
	baseStr, ok := xmldom.LookupAttr(attrs, AttrBase)
	if !ok {
		return 0, 0, false, nil
	}
	at, err := xtime.Parse(baseStr)
	if err != nil || !at.IsAbsolute() || !wireTime(at.Time()) {
		return 0, 0, false, fmt.Errorf("fragment: filler %d has bad %s %q", f.FillerID, AttrBase, baseStr)
	}
	keptStr, _ := xmldom.LookupAttr(attrs, AttrKept)
	kept, err = strconv.Atoi(keptStr)
	if err != nil || kept < 0 || kept > math.MaxInt32 {
		return 0, 0, false, fmt.Errorf("fragment: filler %d has bad %s %q", f.FillerID, AttrKept, keptStr)
	}
	return at.Time().UnixNano(), kept, true, nil
}

// scanHoles collects a scanned payload's holes as lazy.holes keeps them,
// in the walk treeHoles takes over a built tree: a single pair in one,
// which the caller keeps, any other list in a string of its own.
func scanHoles(payload xmldom.Scanned, one *[8]byte) string {
	var buf [32 * 8]byte
	pairs, fits := buf[:0], true
	payload.Walk(func(el xmldom.Scanned) bool {
		if el.Name() != HoleTag {
			return true
		}
		attrs := el.Attrs()
		idStr, _ := xmldom.LookupAttr(attrs, AttrID)
		id, err := strconv.Atoi(idStr)
		if err != nil {
			return false
		}
		tsid := 0
		if v, ok := xmldom.LookupAttr(attrs, AttrTSID); ok {
			if n, err := strconv.Atoi(v); err == nil {
				tsid = n
			}
		}
		pairs, fits = appendHole(pairs, id, tsid, fits)
		return false
	})
	if !fits {
		return "?" // not a whole pair: EachHole asks the tree
	}
	if len(pairs) == len(one) {
		copy(one[:], pairs)
		return unsafe.String(&one[0], len(one))
	}
	return string(pairs)
}

// fromWrapper reads into f the stamps of a <filler> wrapper with the given
// name, attributes and number of element children.
func fromWrapper(f *Fragment, tag string, attrs []xmldom.Attr, kids int) error {
	if tag != FillerTag {
		return fmt.Errorf("fragment: expected <%s>, got <%s>", FillerTag, tag)
	}
	idStr, ok := xmldom.LookupAttr(attrs, AttrID)
	if !ok {
		return fmt.Errorf("fragment: filler missing id")
	}
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 {
		return fmt.Errorf("fragment: bad filler id %q", idStr)
	}
	tsidStr, ok := xmldom.LookupAttr(attrs, AttrTSID)
	if !ok {
		return fmt.Errorf("fragment: filler %d missing tsid", id)
	}
	tsid, err := strconv.Atoi(tsidStr)
	if err != nil || tsid <= 0 {
		return fmt.Errorf("fragment: bad tsid %q on filler %d", tsidStr, id)
	}
	vtStr, ok := xmldom.LookupAttr(attrs, AttrValidTime)
	if !ok {
		return fmt.Errorf("fragment: filler %d missing validTime", id)
	}
	vt, err := xtime.Parse(vtStr)
	if err != nil || !vt.IsAbsolute() {
		return fmt.Errorf("fragment: filler %d has bad validTime %q", id, vtStr)
	}
	var seq uint64
	if seqStr, ok := xmldom.LookupAttr(attrs, AttrSeq); ok {
		seq, err = strconv.ParseUint(seqStr, 10, 64)
		if err != nil || seq == 0 {
			return fmt.Errorf("fragment: bad seq %q on filler %d", seqStr, id)
		}
	}
	if kids != 1 {
		return fmt.Errorf("fragment: filler %d must carry exactly one element, has %d", id, kids)
	}
	f.FillerID, f.TSID, f.ValidTime, f.Seq = id, tsid, vt.Time(), seq
	// PublishedAt is transport metadata a peer must never control: if a
	// decoded frame could carry a publish stamp, a crafted frame would
	// inject an arbitrary delivery latency into the client's histogram
	// (time.Since(PublishedAt) with a chosen instant). Decoding always
	// yields an unstamped fragment — only an in-process server's Publish
	// stamps it, in the same clock domain that measures it.
	f.PublishedAt = time.Time{}
	// The trace attr parses tolerantly: a malformed or missing value
	// degrades to the untraced zero context, never a decode error, so
	// legacy peers (no attr) and garbled frames interoperate. Contrast
	// with PublishedAt above — a trace id can't poison any measurement,
	// it only chooses which correlation bucket spans land in.
	if traceStr, ok := xmldom.LookupAttr(attrs, AttrTrace); ok {
		if tc, ok := obs.ParseTraceContext(traceStr); ok {
			f.Trace = tc
		}
	}
	return nil
}

// Parse parses a <filler> document. The fragment builds its payload when
// first read, and carries no wire form: the text need not be one, so
// String encodes. A delta frame, which is a version only over the one it
// extends, is a *MissingPredecessorError: there is no store here to link
// it to.
func Parse(src string) (*Fragment, error) {
	var d xmldom.Decoder
	f, err := parse(&d, src)
	if err != nil {
		return nil, err
	}
	if f.IsDelta() {
		return nil, f.missingPredecessor()
	}
	f.enc.n = decodedOnly
	return f, nil
}

// ParseStored is Parse for a frame read back from a log, on the decoder
// of the replay reading it: the fragment keeps src as its wire form — whoever
// replays it to a socket or copies it to another file writes the stored
// bytes, not a re-encoding — and builds its payload from it when first
// read. A delta frame decodes as FromScanned decodes it: the replay links
// it (Link).
func ParseStored(d *xmldom.Decoder, src string) (*Fragment, error) {
	return parse(d, src)
}

func parse(d *xmldom.Decoder, src string) (*Fragment, error) {
	doc, err := d.ScanDocument(src)
	if err != nil {
		return nil, err
	}
	root, _ := doc.OnlyElement()
	return decode(root, src, 0)
}

func name(el *xmldom.Node) string {
	if el == nil {
		return "nil"
	}
	return "<" + el.Name + ">"
}

// NewHole builds the <hole id="…" tsid="…"/> placeholder element.
func NewHole(fillerID, tsid int) *xmldom.Node {
	h := xmldom.NewElement(HoleTag)
	h.SetAttr(AttrID, strconv.Itoa(fillerID))
	h.SetAttr(AttrTSID, strconv.Itoa(tsid))
	return h
}

// IsHole reports whether el is a hole placeholder.
func IsHole(el *xmldom.Node) bool {
	return el != nil && el.Type == xmldom.ElementNode && el.Name == HoleTag
}

// HoleID extracts the filler id referenced by a hole element.
func HoleID(el *xmldom.Node) (int, error) {
	if !IsHole(el) {
		return 0, fmt.Errorf("fragment: %v is not a hole", name(el))
	}
	idStr, ok := el.Attr(AttrID)
	if !ok {
		return 0, fmt.Errorf("fragment: hole missing id")
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return 0, fmt.Errorf("fragment: bad hole id %q", idStr)
	}
	return id, nil
}

// HoleTSID extracts the tsid on a hole, or 0 when absent.
func HoleTSID(el *xmldom.Node) int {
	v, ok := el.Attr(AttrTSID)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0
	}
	return n
}

// CountHoles is how many ids HoleIDs appends for el and tsid: what a
// caller sizes its id buffer by.
func CountHoles(el *xmldom.Node, tsid int) int {
	n := 0
	for _, c := range el.Children {
		if !IsHole(c) || tsid > 0 && HoleTSID(c) != tsid {
			continue
		}
		if _, err := HoleID(c); err == nil {
			n++
		}
	}
	return n
}

// HoleIDs appends to dst the ids of el's direct-child holes — when tsid > 0
// only those of holes with that tsid — in one pass over its children, and
// returns the extended slice: a caller crossing the holes of many nodes
// reads them all into one buffer.
func HoleIDs(dst []int, el *xmldom.Node, tsid int) []int {
	for _, c := range el.Children {
		if !IsHole(c) || tsid > 0 && HoleTSID(c) != tsid {
			continue
		}
		if id, err := HoleID(c); err == nil {
			dst = append(dst, id)
		}
	}
	return dst
}
