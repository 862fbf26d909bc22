package fragment

import (
	"testing"

	"xcql/internal/xmldom"
)

func TestCompactCodecRoundTrip(t *testing.T) {
	s, frags := fragmentCredit(t)
	codec := NewCompactCodec(s)
	for _, f := range frags {
		enc := codec.Encode(f)
		dec, err := codec.Decode(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", enc, err)
		}
		if !dec.Payload.Equal(f.Payload) {
			t.Fatalf("round trip changed payload:\n in: %s\nout: %s", f.Payload, dec.Payload)
		}
		if dec.FillerID != f.FillerID || dec.TSID != f.TSID || !dec.ValidTime.Equal(f.ValidTime) {
			t.Fatal("envelope changed")
		}
	}
}

func TestCompactCodecAbbreviatesTags(t *testing.T) {
	s, frags := fragmentCredit(t)
	codec := NewCompactCodec(s)
	var tx *Fragment
	for _, f := range frags {
		if f.Payload.Name == "transaction" {
			tx = f
			break
		}
	}
	enc := codec.Encode(tx)
	if enc.Payload.Name != "t5" {
		t.Fatalf("transaction tag = %q, want t5", enc.Payload.Name)
	}
	// nested snapshot children abbreviate too
	if enc.Payload.FirstChildElement("t6") == nil {
		t.Fatalf("vendor not abbreviated: %s", enc.Payload)
	}
	// holes stay literal
	if len(HoleIDs(nil, enc.Payload, 0)) != 1 {
		t.Fatal("hole lost in abbreviation")
	}
}

func TestCompactCodecSavings(t *testing.T) {
	s, frags := fragmentCredit(t)
	codec := NewCompactCodec(s)
	plain, compact := CompactSavings(codec, frags)
	if compact >= plain {
		t.Fatalf("no savings: %d vs %d", compact, plain)
	}
}

func TestCompactCodecIdempotentOnPlain(t *testing.T) {
	s := creditStruct(t)
	codec := NewCompactCodec(s)
	// a fragment whose tags do not match the structure position passes
	// through untouched and decodes to itself
	f := New(9, 5, ts("2003-01-01T00:00:00"), xmldom.MustParseString(`<transaction><custom>x</custom></transaction>`).Root())
	dec, err := codec.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Payload.Equal(f.Payload) {
		t.Fatal("plain fragment changed by decode")
	}
}

func TestCompactCodecUnknownAbbreviation(t *testing.T) {
	s := creditStruct(t)
	codec := NewCompactCodec(s)
	f := New(9, 5, ts("2003-01-01T00:00:00"), xmldom.MustParseString(`<t99/>`).Root())
	if _, err := codec.Decode(f); err == nil {
		t.Fatal("unknown abbreviation should fail")
	}
	// names that merely look like abbreviations but are not digits pass
	f2 := New(9, 5, ts("2003-01-01T00:00:00"), xmldom.MustParseString(`<transaction><t5x/></transaction>`).Root())
	if _, err := codec.Decode(f2); err != nil {
		t.Fatalf("t5x is a literal name: %v", err)
	}
}
