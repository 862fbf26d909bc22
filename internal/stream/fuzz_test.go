package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/xmldom"
)

// FuzzReadFrame feeds arbitrary bytes to the length-prefixed frame
// reader. The reader sits directly on the network socket, so it must
// never panic and never trust a length prefix into a huge allocation —
// a corrupt or malicious prefix has to come back as an error.
//
// The read loop reads every frame into one buffer and decodes it in
// place, in one decoder, so the target also checks the two things that
// rests on: a frame that decodes as a filler survives decode(encode(f))
// unchanged, and what was decoded from the buffer does not change when the
// buffer and the decoder's scratch are overwritten with the next frame —
// neither its frame nor the payload its first read then builds, which
// equals the payload text parsed eagerly, with the holes EachHole listed
// before the build those of the eager tree's walk.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload string) []byte {
		var b bytes.Buffer
		_ = writeFrame(&b, payload)
		return b.Bytes()
	}
	f.Add(frame(`<stream:eos latest="9"/>`))
	f.Add(frame(`<filler id="1" tsid="2" validTime="2003-01-02T00:00:00" seq="3"><e/></filler>`))
	f.Add(frame(`<filler id="1" tsid="2" validTime="2003-01-02T00:00:00" seq="3" trace="00000000deadbeef-0000000000000001"><e/></filler>`))
	f.Add(frame(`<filler id="1" tsid="2" validTime="2003-01-02T00:00:00" seq="3" trace="junk"><e/></filler>`))
	f.Add(frame(`<filler id="1" tsid="2" validTime="2003-01-02T00:00:00"><e k="a&amp;b">x &lt; y<!-- c --><![CDATA[<raw>]]><?pi d?></e></filler>`))
	f.Add([]byte{0, 0, 0, 0})             // empty frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length prefix
	f.Add([]byte{0, 0, 0, 5, 'a', 'b'})   // truncated payload
	f.Add(append(frame("<a/>"), frame("<b/>")...))
	// holes: under a non-hole element, inside a hole (not searched), with an
	// id that does not parse (skipped), without a tsid (0)
	f.Add(frame(`<filler id="3" tsid="2" validTime="2003-01-02T00:00:00"><a><x><hole id="4" tsid="5"/></x><hole id="6" tsid="5"/></a></filler>`))
	f.Add(frame(`<filler id="3" tsid="2" validTime="2003-01-02T00:00:00"><a><hole id="4" tsid="5"><hole id="8" tsid="5"/></hole></a></filler>`))
	f.Add(frame(`<filler id="3" tsid="2" validTime="2003-01-02T00:00:00"><a><hole id="four" tsid="5"/><hole id="9" tsid="5"/></a></filler>`))
	f.Add(frame(`<filler id="3" tsid="2" validTime="2003-01-02T00:00:00"><a><hole id="4"/><hole id="5" tsid="x"/></a></filler>`))
	// delta frames: a re-announcement's appended hole, nothing appended,
	// mixed content, and one whose payload carries attributes (refused)
	f.Add(frame(`<filler id="3" tsid="2" validTime="2003-01-02T00:01:00" seq="8" base="2003-01-02T00:00:00" kept="2"><a><hole id="7" tsid="5"/></a></filler>`))
	f.Add(frame(`<filler id="3" tsid="2" validTime="2003-01-02T00:01:00" base="2003-01-02T00:00:00" kept="1"><a/></filler>`))
	f.Add(frame(`<filler id="3" tsid="2" validTime="2003-01-02T00:01:00" base="2003-01-02T00:00:00" kept="0"><a>t<x><hole id="4" tsid="5"/></x><hole id="6"/></a></filler>`))
	f.Add(frame(`<filler id="3" tsid="2" validTime="2003-01-02T00:01:00" base="2003-01-02T00:00:00" kept="2"><a k="v"/></filler>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		buf := make([]byte, 0, 64)
		payload, err := readFrame(r, buf)
		if err != nil {
			return
		}
		if len(payload) == 0 || len(payload) > maxFrameSize {
			t.Fatalf("readFrame accepted a %d-byte payload", len(payload))
		}
		// the accepted payload must be exactly what the prefix promised
		if want := binary.BigEndian.Uint32(data[:4]); uint32(len(payload)) != want {
			t.Fatalf("payload length %d, prefix said %d", len(payload), want)
		}
		if !bytes.Equal(payload, data[4:4+len(payload)]) {
			t.Fatal("payload bytes differ from the wire bytes")
		}
		if len(payload) <= cap(buf) && &payload[0] != &buf[:1][0] {
			t.Fatal("a frame that fits the read buffer was read somewhere else")
		}

		// what the read loop does with the frame: scan it in the
		// connection's decoder and build the filler's payload
		var dec xmldom.Decoder
		el, err := dec.Scan(string(payload))
		if err != nil || el.Name() == eosTag {
			return
		}
		frag, err := fragment.FromScanned(el)
		if err != nil {
			return
		}
		if frag.IsDelta() {
			deltaFrame(t, frag, payload, &dec)
			return
		}
		before := frag.String()
		var holes [][2]int
		frag.EachHole(func(id, tsid int) bool {
			holes = append(holes, [2]int{id, tsid})
			return true
		})
		var eager *xmldom.Node // the payload parsed on its own
		if p, kids := el.OnlyElement(); kids == 1 {
			if eager, err = xmldom.ParseString(p.Source()); err != nil {
				t.Fatalf("the payload %q does not parse on its own: %v", p.Source(), err)
			}
			eager = eager.Root()
		}
		for i := range payload {
			payload[i] = 'X' // the next frame arrives in the same buffer
		}
		// and is scanned in the same decoder
		if _, err := dec.Scan(`<filler id="9" tsid="9" validTime="2004-01-01T00:00:00"><next a="b">c<d/></next></filler>`); err != nil {
			t.Fatal(err)
		}
		if after := frag.String(); after != before {
			t.Fatalf("decoded fragment changed with the read buffer and the decoder:\nbefore %s\n after %s", before, after)
		}
		if tree := frag.Tree(); tree == nil != (eager == nil) || eager != nil && !tree.Equal(eager) {
			t.Fatalf("the payload built on the first read is %s, parsed eagerly %s", tree, eager)
		}
		var walked [][2]int
		if eager != nil {
			eager.Walk(func(n *xmldom.Node) bool {
				if !fragment.IsHole(n) {
					return true
				}
				if id, err := fragment.HoleID(n); err == nil {
					walked = append(walked, [2]int{id, fragment.HoleTSID(n)})
				}
				return false
			})
		}
		if !slices.Equal(holes, walked) {
			t.Fatalf("EachHole lists %v, the eager tree's walk %v", holes, walked)
		}
		// what the encoder writes decodes to the encoder's own fixpoint
		// (arbitrary input may spell one run of text as several tokens —
		// text next to CDATA — that re-encode as one)
		canon := decodeFragment(t, frag.ToXML().String()) // String is the frame as it arrived
		if canon.String() != frag.ToXML().String() {
			t.Fatalf("re-encoding drifted:\n first %s\nsecond %s", frag, canon)
		}
		if back := decodeFragment(t, canon.String()); !sameFragment(canon, back) {
			t.Fatalf("decode(encode(f)) != f:\n first %s\nsecond %s", canon, back)
		}
	})
}

// deltaFrame is FuzzReadFrame on a delta frame, which the read loop
// decodes into no version until a store links it: it builds no tree,
// announces no hole and, decoded by anything without a store to link it
// to, is a *fragment.MissingPredecessorError naming its predecessor; it
// changes with neither the read buffer nor the decoder; and linked (Chains)
// to a predecessor of as many <k/> children as it keeps, its tree is the
// one its full form parses to, whatever became of those.
func deltaFrame(t *testing.T, frag *fragment.Fragment, payload []byte, dec *xmldom.Decoder) {
	t.Helper()
	before := frag.String()
	_, err := fragment.Parse(before)
	miss := (*fragment.MissingPredecessorError)(nil)
	if !errors.As(err, &miss) || miss.FillerID != frag.FillerID {
		t.Fatalf("Parse of a delta frame: %v", err)
	}
	if frag.Tree() != nil {
		t.Fatalf("an unlinked delta built %s", frag.Tree())
	}
	frag.EachHole(func(id, _ int) bool {
		t.Fatalf("an unlinked delta announces hole %d", id)
		return false
	})
	el, err := dec.Scan(before)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := el.OnlyElement()
	own, err := xmldom.ParseString(p.Source())
	if err != nil {
		t.Fatalf("the payload %q does not parse on its own: %v", p.Source(), err)
	}
	name := p.Name()
	for i := range payload {
		payload[i] = 'X'
	}
	if _, err := dec.Scan(`<filler id="9" tsid="9" validTime="2004-01-01T00:00:00"><next a="b">c<d/></next></filler>`); err != nil {
		t.Fatal(err)
	}
	if after := frag.String(); after != before {
		t.Fatalf("decoded delta changed with the read buffer and the decoder:\nbefore %s\n after %s", before, after)
	}
	if miss.Kept > 256 {
		return
	}
	prev := xmldom.NewElement(name)
	for range miss.Kept {
		prev.AppendChild(xmldom.NewElement("k"))
	}
	want := xmldom.Elem(name, nil, append(slices.Clone(prev.Children), own.Root().Children...)...)
	var chains fragment.Chains
	prevFrag := fragment.New(frag.FillerID, frag.TSID, miss.Predecessor, prev)
	if err := chains.Link(prevFrag); err != nil {
		t.Fatal(err)
	}
	if err := chains.Link(frag); err != nil {
		t.Fatalf("linking the delta to its predecessor: %v", err)
	}
	if !frag.Tree().Equal(want) {
		t.Fatalf("the linked delta built %s, its full form %s", frag.Tree(), want)
	}
}

// decodeFragment decodes a frame the encoder wrote.
func decodeFragment(t *testing.T, wire string) *fragment.Fragment {
	t.Helper()
	el, err := decodeElement([]byte(wire))
	if err != nil {
		t.Fatalf("encoded frame does not decode: %v\nwire: %s", err, wire)
	}
	f, err := fragment.FromXML(el)
	if err != nil {
		t.Fatalf("encoded frame is not a filler: %v\nwire: %s", err, wire)
	}
	return f
}

// sameFragment compares what the wire carries of a fragment.
func sameFragment(a, b *fragment.Fragment) bool {
	return a.FillerID == b.FillerID && a.TSID == b.TSID && a.Seq == b.Seq &&
		a.ValidTime.Equal(b.ValidTime) && a.Trace == b.Trace && a.Tree().Equal(b.Tree())
}

// FuzzFrameRoundTrip checks the framing codec both ways: any payload the
// writer will frame, the reader recovers byte-identical — including
// payloads full of frame-header-looking bytes, nulls, and partial XML.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(`<filler id="0" tsid="1" validTime="2003-01-02T00:00:00"><doc/></filler>`))
	f.Add([]byte(`<filler id="0" tsid="1" validTime="2003-01-02T00:00:00" trace="0000000000000001-0000000000000002"><doc/></filler>`))
	f.Add([]byte(`<filler id="3" tsid="2" validTime="2003-01-02T00:01:00" seq="8" base="2003-01-02T00:00:00" kept="2"><a><hole id="7" tsid="5"/></a></filler>`))
	f.Add([]byte{0, 0, 0, 4})
	f.Add([]byte("x"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > 1<<20 {
			return // the writer's caller never frames these
		}
		var b bytes.Buffer
		if err := writeFrame(&b, string(payload)); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		// twice over, into one buffer: the second read reuses the first's
		// bytes and must still come out whole
		b.Write(bytes.Clone(b.Bytes()))
		var buf []byte
		for range 2 {
			got, err := readFrame(&b, buf)
			if err != nil {
				t.Fatalf("readFrame after writeFrame: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("round trip drifted: wrote %d bytes, read %d", len(payload), len(got))
			}
			buf = got
		}
		if b.Len() != 0 {
			t.Fatalf("%d trailing bytes after two frames", b.Len())
		}
	})
}
