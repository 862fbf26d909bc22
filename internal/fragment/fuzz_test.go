package fragment

import (
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
// decoder decodes the next frame.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec xmldom.Decoder
		keptFrag, keptErr := decodeKept(&dec, string(data))
		freshFrag, freshErr := decodeFresh(string(data))
		if (keptErr == nil) != (freshErr == nil) || keptErr != nil && keptErr.Error() != freshErr.Error() {
			t.Fatalf("kept decoder: %v; fresh ParseElement + FromXML: %v", keptErr, freshErr)
		}
		if keptFrag != nil {
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
