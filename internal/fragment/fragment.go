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
// and the client-side Store whose GetFillers method realizes the paper's
// get_fillers function (versions annotated with their deduced [vtFrom,
// vtTo] lifespans).
package fragment

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

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
)

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
	// Payload is the single element carried by the filler. It is immutable
	// from the moment the fragment is built: stores, caches, indexes and
	// query results all share its subtrees, so nobody — not even the
	// publisher that built it — may write it afterwards. Clone it to get a
	// tree to change.
	Payload *xmldom.Node

	// wire is the fragment's wire form when it carries one: rendered by
	// Sealed for the consumers of a publish that write bytes, or the stored
	// bytes of a frame read back from a segment file. See the "Wire codec"
	// section of DESIGN.md.
	wire string
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
	g.wire = ""
	return &g
}

// WithTrace returns a shallow copy of f stamped with the given trace
// context (payload shared and wire form dropped, like WithSeq).
func (f *Fragment) WithTrace(tc obs.TraceContext) *Fragment {
	g := *f
	g.Trace = tc
	g.wire = ""
	return &g
}

// Sealed returns a shallow copy of f carrying its wire form, rendered once
// through scratch: String on the copy returns those bytes instead of
// encoding again, so a durable log and any number of sockets write one
// encoding. It is the last step of publishing, after every stamp is on —
// the copy's stamps must not change afterwards (WithSeq and WithTrace
// return unsealed copies).
func (f *Fragment) Sealed(scratch *bytes.Buffer) *Fragment {
	scratch.Reset()
	f.writeWire(scratch)
	g := *f
	g.wire = scratch.String()
	return &g
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
	if f.Payload != nil {
		el.AppendChild(f.Payload)
	}
	return el
}

// String returns the compact wire form: the attached one when the
// fragment has been sealed or read back from a log, a fresh encoding
// otherwise. It is byte for byte what ToXML().String() spells.
func (f *Fragment) String() string {
	if f.wire != "" {
		return f.wire
	}
	var b strings.Builder
	f.writeWire(&b)
	return b.String()
}

// writeWire writes the wire form straight into w: the <filler …> tag from
// the stamps, the payload through the serializer, no wrapper element.
func (f *Fragment) writeWire(w xmldom.Sink) {
	var num [32]byte // stays on the stack: only its bytes are handed on
	put := func(b []byte) {
		for _, c := range b {
			w.WriteByte(c)
		}
	}
	w.WriteString(`<` + FillerTag + ` ` + AttrID + `="`)
	put(strconv.AppendInt(num[:0], int64(f.FillerID), 10))
	w.WriteString(`" ` + AttrTSID + `="`)
	put(strconv.AppendInt(num[:0], int64(f.TSID), 10))
	w.WriteString(`" ` + AttrValidTime + `="`)
	put(f.ValidTime.UTC().AppendFormat(num[:0], xtime.Layout))
	if f.Seq > 0 {
		w.WriteString(`" ` + AttrSeq + `="`)
		put(strconv.AppendUint(num[:0], f.Seq, 10))
	}
	if f.Trace.Valid() {
		w.WriteString(`" ` + AttrTrace + `="`)
		w.WriteString(f.Trace.String())
	}
	if f.Payload == nil {
		w.WriteString(`"/>`)
		return
	}
	w.WriteString(`">`)
	f.Payload.EncodeTo(w)
	w.WriteString(`</` + FillerTag + `>`)
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
	f, err := fromWrapper(el.Name, el.Attrs, kids)
	if err != nil {
		return nil, err
	}
	f.Payload = payload
	return f, nil
}

// FromScanned is FromXML for a <filler> element held in an xmldom.Decoder's
// scratch: the wrapper is checked there, by the code that checks FromXML's
// and with the same errors, and never built; only the payload is, so a
// stored fragment keeps no wrapper node.
func FromScanned(el xmldom.Scanned) (*Fragment, error) {
	payload, kids := el.OnlyElement()
	f, err := fromWrapper(el.Name(), el.Attrs(), kids)
	if err != nil {
		return nil, err
	}
	f.Payload = payload.Build()
	return f, nil
}

// fromWrapper reads the stamps of a <filler> wrapper with the given name,
// attributes and number of element children into a fragment that has no
// payload yet.
func fromWrapper(tag string, attrs []xmldom.Attr, kids int) (*Fragment, error) {
	if tag != FillerTag {
		return nil, fmt.Errorf("fragment: expected <%s>, got <%s>", FillerTag, tag)
	}
	idStr, ok := xmldom.LookupAttr(attrs, AttrID)
	if !ok {
		return nil, fmt.Errorf("fragment: filler missing id")
	}
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 {
		return nil, fmt.Errorf("fragment: bad filler id %q", idStr)
	}
	tsidStr, ok := xmldom.LookupAttr(attrs, AttrTSID)
	if !ok {
		return nil, fmt.Errorf("fragment: filler %d missing tsid", id)
	}
	tsid, err := strconv.Atoi(tsidStr)
	if err != nil || tsid <= 0 {
		return nil, fmt.Errorf("fragment: bad tsid %q on filler %d", tsidStr, id)
	}
	vtStr, ok := xmldom.LookupAttr(attrs, AttrValidTime)
	if !ok {
		return nil, fmt.Errorf("fragment: filler %d missing validTime", id)
	}
	vt, err := xtime.Parse(vtStr)
	if err != nil || !vt.IsAbsolute() {
		return nil, fmt.Errorf("fragment: filler %d has bad validTime %q", id, vtStr)
	}
	var seq uint64
	if seqStr, ok := xmldom.LookupAttr(attrs, AttrSeq); ok {
		seq, err = strconv.ParseUint(seqStr, 10, 64)
		if err != nil || seq == 0 {
			return nil, fmt.Errorf("fragment: bad seq %q on filler %d", seqStr, id)
		}
	}
	if kids != 1 {
		return nil, fmt.Errorf("fragment: filler %d must carry exactly one element, has %d", id, kids)
	}
	f := New(id, tsid, vt.Time(), nil)
	f.Seq = seq
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
	return f, nil
}

// Parse parses the compact wire string form.
func Parse(src string) (*Fragment, error) {
	var d xmldom.Decoder
	return parse(&d, src)
}

// ParseStored is Parse for a frame read back from a log, on the decoder
// of the replay reading it: the fragment keeps src — which its payload
// was decoded in place from, and so keeps alive anyway — as its wire form,
// and whoever replays it to a socket or copies it to another file writes
// the stored bytes, not a re-encoding.
func ParseStored(d *xmldom.Decoder, src string) (*Fragment, error) {
	f, err := parse(d, src)
	if err != nil {
		return nil, err
	}
	f.wire = src
	return f, nil
}

func parse(d *xmldom.Decoder, src string) (*Fragment, error) {
	doc, err := d.ScanDocument(src)
	if err != nil {
		return nil, err
	}
	root, _ := doc.OnlyElement()
	return FromScanned(root)
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
