package stream

import (
	"bytes"
	"encoding/binary"
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
// buffer and the decoder's scratch are overwritten with the next frame.
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
		before := frag.String()
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
