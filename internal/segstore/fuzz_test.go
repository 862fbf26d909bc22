package segstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xcql/internal/fragment"
)

// FuzzSegmentReplay feeds arbitrary bytes to recovery as a segment file.
// Whatever the mutation, opening the store must never panic and must
// land in exactly one of the sanctioned outcomes: a clean parse, a torn
// tail truncation, or quarantine-with-salvage — and every item it does
// return must be a well-formed filler that a second open reproduces
// identically with nothing left to quarantine. Every frame the scan
// accepts also satisfies decode(encode(f)) == f and shares nothing with
// the file buffer it was scanned from.
func FuzzSegmentReplay(f *testing.F) {
	// seed with a real segment file, a real snapshot file, and junk
	dir := f.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i, fr := range nFrags(6) {
		if i == 4 {
			if _, err := s.Snapshot(); err != nil {
				f.Fatal(err)
			}
		}
		if err := s.Append(fr); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add([]byte("not a segment at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > len(segMagic) {
			body := bytes.Clone(data[len(segMagic):])
			res := parseFile(body, int64(len(segMagic)))
			var before []string
			for _, rec := range res.frames {
				before = append(before, rec.xml)
				if rec.frag == nil {
					continue
				}
				before = append(before, rec.frag.Tree().String())
				// a stored frame replays as the bytes it was stored as; what
				// the encoder makes of it is the encoder's fixpoint
				if rec.frag.String() != rec.xml {
					t.Fatalf("stored frame %q replays as %q", rec.xml, rec.frag)
				}
				canon := rec.frag.WithSeq(rec.frag.Seq)
				back, err := fragment.Parse(canon.String())
				if err != nil || back.String() != canon.String() || back.Seq != canon.Seq ||
					back.FillerID != canon.FillerID || back.TSID != canon.TSID || !back.ValidTime.Equal(canon.ValidTime) {
					t.Fatalf("decode(encode(f)) != f for stored frame %q: %v", rec.xml, err)
				}
				if again, err := fragment.Parse(back.String()); err != nil || !again.Tree().Equal(back.Tree()) {
					t.Fatalf("decode(encode(f)) != f for stored frame %q: %v", rec.xml, err)
				}
			}
			for i := range body {
				body[i] = 'X' // the file buffer is the reader's to reuse
			}
			var after []string
			for _, rec := range res.frames {
				after = append(after, rec.xml)
				if rec.frag != nil {
					after = append(after, rec.frag.Tree().String())
				}
			}
			if strings.Join(before, "\n") != strings.Join(after, "\n") {
				t.Fatal("scanned frames changed with the file buffer")
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery must absorb arbitrary bytes, got error: %v", err)
		}
		got, err := s.All()
		if err != nil {
			t.Fatalf("All after recovery: %v", err)
		}
		for _, fr := range got {
			if fr == nil {
				t.Fatal("recovery returned a nil fragment")
			}
			if _, perr := fragment.Parse(fr.String()); perr != nil {
				t.Fatalf("recovery returned a corrupt item: %v", perr)
			}
		}
		// losses must be accounted for: anything short of a clean full
		// parse shows up as torn bytes, an empty-file removal, or a
		// quarantine — never silence
		if len(got) == 0 && len(data) > len(segMagic) {
			if rep.TornBytes == 0 && rep.EmptySegments == 0 && len(rep.QuarantinedFiles) == 0 {
				t.Fatalf("bytes vanished with no accounting: %+v", rep)
			}
		}
		s.Close()

		// a second open must be stable: same items, nothing new to
		// quarantine (salvage output is itself a valid segment)
		s2, rep2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if len(rep2.QuarantinedFiles) != 0 {
			t.Fatalf("second open quarantined again: %v", rep2.QuarantinedFiles)
		}
		got2, err := s2.All()
		if err != nil {
			t.Fatal(err)
		}
		s2.Close()
		a, b := wires(got), wires(got2)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("recovery is unstable across opens:\nfirst %d items\nsecond %d items", len(a), len(b))
		}
	})
}
