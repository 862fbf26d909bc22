package fragment

import (
	"errors"
	"slices"
	"testing"

	"xcql/internal/xmldom"
)

// FuzzWireDecode throws arbitrary bytes at the filler wire parser. Two
// properties must hold: the parser never panics on hostile input (a
// streaming client feeds it whatever arrives on the socket), and any
// input it does accept re-encodes to a wire form that parses back to the
// same fragment — decode(encode(f)) == f, stamps and payload tree alike,
// which is what lets the stream layer relay fragments without semantic
// drift. And since a decoded payload shares the string it was decoded
// from, never the bytes that string was made of, scribbling over those
// bytes afterwards must not reach it.
//
// A connection or a replay decodes every frame in one kept
// xmldom.Decoder, which never builds the <filler> wrapper: it must accept
// and reject exactly what a fresh ParseElement + FromXML does, with the
// same error, and a fragment it decoded must not change when the same
// decoder decodes the next frame. What a decode leaves unbuilt must equal
// what an eager decode builds (lazyEqualsEager). A delta frame is the one
// exception: the kept decoder takes it, unlinked, where an exported decode
// refuses it with a *MissingPredecessorError, and linked it is the version
// its full form spells (deltaEqualsFull).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`<filler id="0" tsid="1" validTime="2003-01-02T00:00:00"><doc/></filler>`))
	f.Add([]byte(`<filler id="7" tsid="5" validTime="2003-01-02T10:00:00" seq="42"><event><value>33</value></event></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-02-28T23:59:59"><account><hole id="4" tsid="5"/></account></filler>`))
	f.Add([]byte(`<filler id="1" tsid="1" validTime="now"><x/></filler>`))
	f.Add([]byte(`<filler id="-1" tsid="0" validTime=""><x/></filler>`))
	f.Add([]byte(`<filler id="1" tsid="1" validTime="2003-01-02T00:00:00" seq="0"><x/></filler>`))
	f.Add([]byte(`<notafiller/>`))
	f.Add([]byte(`<filler id="1" tsid="1" validTime="2003-01-02T00:00:00"><a/><b/></filler>`))
	// trace-context attr: valid, malformed (tolerated, dropped), zero id
	// (rejected by ParseTraceContext, dropped), and hostile junk
	f.Add([]byte(`<filler id="1" tsid="1" validTime="2003-01-02T00:00:00" trace="00000000deadbeef-0000000000000007"><x/></filler>`))
	f.Add([]byte(`<filler id="1" tsid="1" validTime="2003-01-02T00:00:00" trace="not-a-trace"><x/></filler>`))
	f.Add([]byte(`<filler id="1" tsid="1" validTime="2003-01-02T00:00:00" trace="0000000000000000-0000000000000000"><x/></filler>`))
	f.Add([]byte(`<filler id="1" tsid="1" validTime="2003-01-02T00:00:00" trace="ffffffffffffffffffffffffffffffffff"><x/></filler>`))
	// holes: under a non-hole element, inside a hole (not searched), with an
	// id that does not parse (skipped), without a tsid (0)
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-02-28T23:59:59"><account><x><hole id="4" tsid="5"/></x><hole id="6" tsid="5"/></account></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-02-28T23:59:59"><account><hole id="4" tsid="5"><hole id="8" tsid="5"/></hole></account></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-02-28T23:59:59"><account><hole id="four" tsid="5"/><hole id="9" tsid="5"/></account></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-02-28T23:59:59"><account><hole id="4"/><hole id="5" tsid="x"/></account></filler>`))
	// delta frames: one appended hole, nothing appended, mixed content, and
	// a bad predecessor stamp, a bad count and payload attributes (refused)
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-03-01T00:00:00" seq="9" base="2003-02-28T23:59:59" kept="2"><account><hole id="11" tsid="5"/></account></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-03-01T00:00:00" base="2003-02-28T23:59:59" kept="1"><account/></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-03-01T00:00:00" base="2003-02-28T23:59:59" kept="0"><account>t<!-- c --><x><hole id="4" tsid="5"/></x><hole id="6"/></account></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-03-01T00:00:00" base="now" kept="2"><account/></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-03-01T00:00:00" base="2003-02-28T23:59:59" kept="-1"><account/></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-03-01T00:00:00" base="2003-02-28T23:59:59" kept="2"><account id="a"/></filler>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec xmldom.Decoder
		keptFrag, keptErr := decodeKept(&dec, string(data))
		freshFrag, freshErr := decodeFresh(string(data))
		if miss := (*MissingPredecessorError)(nil); keptErr == nil && errors.As(freshErr, &miss) {
			if _, err := Parse(string(data)); err == nil || err.Error() != freshErr.Error() {
				t.Fatalf("Parse of a delta frame: %v, FromXML: %v", err, freshErr)
			}
			wire := keptFrag.String()
			for i := range data {
				data[i] = 'X'
			}
			if _, err := decodeKept(&dec, `<filler id="9" tsid="9" validTime="2004-01-01T00:00:00"><next/></filler>`); err != nil {
				t.Fatal(err)
			}
			if keptFrag.String() != wire {
				t.Fatalf("a delta changed with the bytes it was decoded from and its decoder:\nbefore %s\n after %s", wire, keptFrag)
			}
			deltaEqualsFull(t, keptFrag, miss)
			return
		}
		if (keptErr == nil) != (freshErr == nil) || keptErr != nil && keptErr.Error() != freshErr.Error() {
			t.Fatalf("kept decoder: %v; fresh ParseElement + FromXML: %v", keptErr, freshErr)
		}
		if keptFrag != nil {
			lazyEqualsEager(t, keptFrag)
			keptWire := keptFrag.ToXML().String() // a fresh encoding: String is the frame as it arrived
			if keptWire != freshFrag.String() {
				t.Fatalf("kept decoder gave %s, fresh decode %s", keptWire, freshFrag)
			}
			if _, err := decodeKept(&dec, keptWire); err != nil {
				t.Fatalf("the encoder's frame does not decode: %v\nwire: %s", err, keptWire)
			}
			if keptFrag.ToXML().String() != keptWire {
				t.Fatalf("a fragment changed when its decoder decoded the next frame:\nbefore %s\n after %s", keptWire, keptFrag)
			}
		}

		frag, err := Parse(string(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		lazyEqualsEager(t, frag)
		if frag.TSID <= 0 || frag.FillerID < 0 {
			t.Fatalf("parser accepted invalid identity: %+v", frag)
		}
		again, err := Parse(frag.String())
		if err != nil {
			t.Fatalf("re-encoded form does not parse: %v\nwire: %s", err, frag.String())
		}
		if again.FillerID != frag.FillerID || again.TSID != frag.TSID ||
			again.Seq != frag.Seq || !again.ValidTime.Equal(frag.ValidTime) ||
			again.Trace != frag.Trace {
			t.Fatalf("round trip drifted:\n first %s\nsecond %s", frag, again)
		}
		if again.Tree().String() != frag.Tree().String() {
			t.Fatalf("payload drifted:\n first %s\nsecond %s", frag.Tree(), again.Tree())
		}
		// again was decoded from what the encoder writes, so its tree is
		// the encoder's own fixpoint (arbitrary input may spell one run of
		// text as several tokens — text next to CDATA — that re-encode as
		// one)
		third, err := Parse(again.String())
		if err != nil || !third.Tree().Equal(again.Tree()) {
			t.Fatalf("decode(encode(f)) != f: %v\n first %s\nsecond %s", err, again, third)
		}
		wire := frag.String()
		for i := range data {
			data[i] = 'X'
		}
		if frag.String() != wire {
			t.Fatalf("fragment changed with the bytes it was decoded from:\nbefore %s\n after %s", wire, frag)
		}
		stored, err := ParseStored(&dec, wire)
		if err != nil || stored.String() != wire || !stored.Tree().Equal(again.Tree()) {
			t.Fatalf("ParseStored(%s) = %v, %v", wire, stored, err)
		}
	})
}

// decodeKept is a connection's read loop on one frame.
func decodeKept(dec *xmldom.Decoder, frame string) (*Fragment, error) {
	el, err := dec.Scan(frame)
	if err != nil {
		return nil, err
	}
	return FromScanned(el)
}

// decodeFresh decodes one frame with nothing kept: the whole element
// built, wrapper included, then read.
func decodeFresh(frame string) (*Fragment, error) {
	el, err := xmldom.ParseElement(frame)
	if err != nil {
		return nil, err
	}
	return FromXML(el)
}

// deltaEqualsFull holds a fragment decoded from a delta frame to the
// version it stands for: unlinked it is no version — no tree, no hole, and
// miss, what an exported decode of its frame said, names its predecessor
// —, and linked to a predecessor of as many <k/> children as it keeps, its
// tree is the full form's — the predecessor's children, then the frame's
// own, parsed — and its holes that tree's.
func deltaEqualsFull(t *testing.T, frag *Fragment, miss *MissingPredecessorError) {
	t.Helper()
	lz := frag.enc.lazy()
	if miss.FillerID != frag.FillerID || miss.Kept != int(lz.kept) || miss.Predecessor.UnixNano() != lz.base {
		t.Fatalf("the error %v does not name the frame's predecessor", miss)
	}
	if frag.Tree() != nil {
		t.Fatalf("an unlinked delta built %s", frag.Tree())
	}
	frag.EachHole(func(id, tsid int) bool {
		t.Fatalf("an unlinked delta announces hole %d", id)
		return false
	})
	if miss.Kept > 256 {
		return
	}
	var dec xmldom.Decoder
	el, err := dec.Scan(frag.String())
	if err != nil {
		t.Fatalf("the frame of a decoded delta does not scan: %v", err)
	}
	payload, _ := el.OnlyElement()
	own, err := xmldom.ParseString(payload.Source())
	if err != nil {
		t.Fatalf("the payload %q does not parse on its own: %v", payload.Source(), err)
	}
	prev := xmldom.NewElement(payload.Name())
	for range miss.Kept {
		prev.AppendChild(xmldom.NewElement("k"))
	}
	want := xmldom.Elem(payload.Name(), nil, append(slices.Clone(prev.Children), own.Root().Children...)...)
	if err := frag.linkTo(New(frag.FillerID, frag.TSID, miss.Predecessor, prev)); err != nil {
		t.Fatalf("linking the delta to its predecessor: %v", err)
	}
	if got, _ := frag.Predecessor(); got == nil || !frag.Tree().Equal(want) {
		t.Fatalf("the linked delta built %s, its full form %s", frag.Tree(), want)
	}
	var holes, walked [][2]int
	frag.EachHole(func(id, tsid int) bool {
		holes = append(holes, [2]int{id, tsid})
		return true
	})
	want.Walk(func(n *xmldom.Node) bool {
		if !IsHole(n) {
			return true
		}
		if id, err := HoleID(n); err == nil {
			walked = append(walked, [2]int{id, HoleTSID(n)})
		}
		return false
	})
	if !slices.Equal(holes, walked) {
		t.Fatalf("the linked delta lists holes %v, its full form %v", holes, walked)
	}
}

// lazyEqualsEager holds a decoded fragment, before anything has read its
// payload, to what an eager decode of its frame makes: the tree its first
// read builds is the payload's text parsed on its own, and EachHole lists
// the holes the tree walk of an eager decode finds — every hole in
// document order, below non-hole elements only, one whose id does not
// parse skipped, one without a tsid that parses with tsid 0.
func lazyEqualsEager(t *testing.T, frag *Fragment) {
	t.Helper()
	var holes [][2]int
	frag.EachHole(func(id, tsid int) bool {
		holes = append(holes, [2]int{id, tsid})
		return true
	})
	var dec xmldom.Decoder
	el, err := dec.Scan(frag.String())
	if err != nil {
		t.Fatalf("the frame of a decoded fragment does not scan: %v", err)
	}
	payload, kids := el.OnlyElement()
	if kids != 1 {
		if frag.Tree() != nil || holes != nil {
			t.Fatalf("a fragment without a payload built %s and lists holes %v", frag.Tree(), holes)
		}
		return
	}
	eager, err := xmldom.ParseString(payload.Source())
	if err != nil {
		t.Fatalf("the payload %q does not parse on its own: %v", payload.Source(), err)
	}
	if !frag.Tree().Equal(eager.Root()) {
		t.Fatalf("the payload built on the first read is %s, parsed eagerly %s", frag.Tree(), eager.Root())
	}
	var walked [][2]int
	eager.Root().Walk(func(n *xmldom.Node) bool {
		if !IsHole(n) {
			return true
		}
		if id, err := HoleID(n); err == nil {
			walked = append(walked, [2]int{id, HoleTSID(n)})
		}
		return false
	})
	if !slices.Equal(holes, walked) {
		t.Fatalf("EachHole lists %v, the tree walk %v", holes, walked)
	}
}
