package xcql_test

// The wire codec's benchmark rows and allocation ceilings: what one frame
// costs to encode at Publish and to decode where it arrives, on the two
// frames an ingest event of the credit stream is made of — the transaction
// and the re-announcement of its account, thirty holes in.

import (
	"runtime"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/stream"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// wireFixtures are the benchmarked fragments, sequenced as a server
// publishes them.
func wireFixtures() map[string]*fragment.Fragment {
	at := time.Date(2004, 1, 1, 12, 30, 0, 0, time.UTC)
	tx := xmldom.NewElement("transaction")
	tx.SetAttr("id", "t4711")
	tx.AppendChild(xmldom.TextElem("vendor", "Electronics Mart"))
	tx.AppendChild(xmldom.TextElem("amount", "738"))
	acct := xmldom.NewElement("account")
	acct.SetAttr("id", "acct1017")
	acct.AppendChild(xmldom.TextElem("customer", "Customer 17"))
	acct.AppendChild(fragment.NewHole(218, 4))
	for i := range 30 {
		acct.AppendChild(fragment.NewHole(5000+200*i, 5))
	}
	return map[string]*fragment.Fragment{
		"transaction": fragment.New(11017, 5, at, tx).WithSeq(12345),
		"account30":   fragment.New(18, 2, at, acct).WithSeq(12344),
	}
}

var wireFixtureNames = []string{"transaction", "account30"}

// decodeFrame is the client read loop's work on one frame: the one copy
// out of the read buffer, the frame scanned in place in the connection's
// decoder, the fragment with its payload built.
func decodeFrame(dec *xmldom.Decoder, buf []byte) (*fragment.Fragment, error) {
	el, err := dec.Scan(string(buf))
	if err != nil {
		return nil, err
	}
	return fragment.FromScanned(el)
}

// BenchmarkWireCodec: encode is Publish's single encoding (Sealed), decode
// the read loop's.
func BenchmarkWireCodec(b *testing.B) {
	fixtures := wireFixtures()
	for _, name := range wireFixtureNames {
		f := fixtures[name]
		wire := []byte(f.String())
		b.Run("encode/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for b.Loop() {
				if f.Sealed().String() == "" {
					b.Fatal("empty encoding")
				}
			}
		})
		b.Run("decode/"+name, func(b *testing.B) {
			var dec xmldom.Decoder
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := decodeFrame(&dec, wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// allocsAndBytes is testing.AllocsPerRun that also reports bytes.
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up: scratch buffers reach their size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// nullLog is a durable log that keeps nothing: it makes Publish seal.
type nullLog struct{ frames, bytes int }

func (l *nullLog) Append(f *fragment.Fragment) error {
	l.frames++
	l.bytes += len(f.String())
	return nil
}
func (l *nullLog) ReadSince(uint64) ([]*fragment.Fragment, error) {
	return nil, nil
}
func (l *nullLog) SeqCoverage() (min, max uint64, contiguous bool) { return 0, 0, true }

// TestWireCodecAllocationCeiling is the codec's part of `make alloc-gate`.
// A frame decoded in a connection's kept decoder costs one copy of its
// bytes — the string everything else is a substring of —, the payload's
// three arrays (nodes, attributes, child pointers) and the fragment, the
// <filler> wrapper nothing: 5 allocations and 800 B for the transaction,
// 5 and 6 544 B for the account with its thirty holes, and the ceilings
// sit ~15 % above that. (Built node by node, wrapper included, with a
// slice per element, it was 15 allocations and 1 192 B, and 75 and
// 7 296 B; the tokenizer before that built a 32 KiB reader per frame and
// a string per name and value: 72 allocations and 35.6 KB for the
// transaction.) Publish → wire bytes is the stamped copy, the sealed copy,
// the bytes, and the window's and the trim's share: 5 allocations, 586 B.
func TestWireCodecAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fixtures := wireFixtures()
	for _, c := range []struct {
		name           string
		allocs, bytes_ float64
	}{
		{"transaction", 2, 390},
		{"account30", 3, 1660},
	} {
		wire := []byte(fixtures[c.name].String())
		var dec xmldom.Decoder
		allocs, bytes := allocsAndBytes(200, func() {
			if _, err := decodeFrame(&dec, wire); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("decode/%s (%d B on the wire): %.0f allocs, %.0f B (ceilings %.0f, %.0f)", c.name, len(wire), allocs, bytes, c.allocs, c.bytes_)
		if allocs > c.allocs || bytes > c.bytes_ {
			t.Errorf("decode/%s: %.0f allocs and %.0f B per frame, ceilings %.0f and %.0f", c.name, allocs, bytes, c.allocs, c.bytes_)
		}
	}
	// a frame that is read after all costs what decoding it eagerly did —
	// 5 allocations, 6 544 B for account30 — and one allocation more, the
	// hole list decode collects (256 B), beside the 48 B the lazy state adds
	// to the fragment: the deferred build scans the frame again, in a pooled
	// decoder, and keeps nothing but the tree's three arrays (6 848 B)
	const firstReadAllocs, firstReadBytes = 6, 6900
	wire := []byte(fixtures["account30"].String())
	var dec xmldom.Decoder
	allocs, bytes := allocsAndBytes(200, func() {
		f, err := decodeFrame(&dec, wire)
		if err != nil || f.Tree() == nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode+first-read/account30: %.0f allocs, %.0f B (ceilings %d, %d)", allocs, bytes, firstReadAllocs, firstReadBytes)
	if allocs > firstReadAllocs || bytes > firstReadBytes {
		t.Errorf("decode+first-read/account30: %.0f allocs and %.0f B, ceilings %d and %d", allocs, bytes, firstReadAllocs, firstReadBytes)
	}

	structure := tagstruct.MustParseString(`<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts"><tag type="temporal" id="2" name="account">
<tag type="temporal" id="4" name="creditLimit"/><tag type="event" id="5" name="transaction"/></tag></tag>
</stream:structure>`)
	srv := stream.NewServer("credit", structure)
	defer srv.Close()
	log := &nullLog{}
	srv.AttachDurable(log)
	srv.SetHistoryLimit(8) // the window's growth is not the codec's
	unstamped := fragment.New(11017, 5, fixtures["transaction"].ValidTime, fixtures["transaction"].Payload)
	const publishAllocs, publishBytes = 6, 680
	allocs, bytes = allocsAndBytes(200, func() { srv.Publish(unstamped) })
	t.Logf("publish/transaction: %.0f allocs, %.0f B (ceilings %d, %d)", allocs, bytes, publishAllocs, publishBytes)
	if allocs > publishAllocs || bytes > publishBytes {
		t.Errorf("publish/transaction: %.0f allocs and %.0f B per publish, ceilings %d and %d", allocs, bytes, publishAllocs, publishBytes)
	}
	if log.frames != 200+1 || log.bytes == 0 {
		t.Fatalf("the log saw %d frames, %d bytes: Publish did not hand it every frame", log.frames, log.bytes)
	}
}
