package xcql_test

// The wire codec's benchmark rows and allocation ceilings: what one frame
// costs to encode at Publish and to decode where it arrives, on the two
// frames an ingest event of the credit stream is made of — the transaction
// and the re-announcement of its account, thirty holes in, in its full form
// and as the delta frame a server seals it in.

import (
	"runtime"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/segstore"
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

// reannounced is account30 re-announced n times, a hole more each time:
// the full form of the version before the first, and then each
// re-announcement's delta frame (SealedOver) as a server publishing them
// seals it.
func reannounced(n int) (prev *fragment.Fragment, deltas [][]byte) {
	acct := wireFixtures()["account30"]
	prev = acct
	for i := range n {
		p := acct.Payload.CloneShallow()
		p.Children = append(append(p.Children, prev.Payload.Children...), fragment.NewHole(9000+i, 5))
		next := fragment.New(acct.FillerID, acct.TSID, prev.ValidTime.Add(time.Minute), p).WithSeq(prev.Seq + 2)
		sealed, delta := next.SealedOver(prev)
		if !delta {
			panic("a re-announcement sealed whole")
		}
		deltas, prev = append(deltas, []byte(sealed.String())), next
	}
	return acct, deltas
}

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
	// a collection during the runs empties the pooled decoders, and the
	// next first read allocates one: collect before them, not inside them
	runtime.GC()
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
// A re-announcement travels as a delta frame: decoding it is held at the
// transaction's ceilings, and decoding and reading it, twenty times along
// a chain of them, under today's full-form account30 rows. A segment
// store's append allocates nothing.
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

	// a re-announcement of account30 is a delta frame: decoding it costs
	// what decoding a transaction does — the frame's string and the
	// fragment, its one new hole kept in the fragment —, and its first
	// read, linked as a store links it to the version before (Chains),
	// builds the top, the new hole and a copy of the customer, and holds
	// the version before's hole nodes in a list of its own
	const deltaAllocs, deltaBytes = 2, 390
	_, deltas := reannounced(1)
	allocs, bytes = allocsAndBytes(200, func() {
		if f, err := decodeFrame(&dec, deltas[0]); err != nil || !f.IsDelta() {
			t.Fatal(err)
		}
	})
	t.Logf("decode/account30 as a delta (%d B on the wire): %.0f allocs, %.0f B (ceilings %d, %d)", len(deltas[0]), allocs, bytes, deltaAllocs, deltaBytes)
	if allocs > deltaAllocs || bytes > deltaBytes {
		t.Errorf("decode/account30 as a delta: %.0f allocs and %.0f B per frame, ceilings %d and %d", allocs, bytes, deltaAllocs, deltaBytes)
	}
	const deltaReadAllocs, deltaReadBytes = 6, 1500
	const chain = 20
	prev, deltas := reannounced(chain + 1)
	var chains fragment.Chains
	if err := chains.Link(prev); err != nil {
		t.Fatal(err)
	}
	prev.Tree()
	next := 0
	allocs, bytes = allocsAndBytes(chain, func() {
		f, err := decodeFrame(&dec, deltas[next])
		if err == nil {
			err = chains.Link(f)
		}
		if err != nil || f.Tree() == nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("decode+first-read/account30 as a delta: %.1f allocs, %.0f B (ceilings %d, %d)", allocs, bytes, deltaReadAllocs, deltaReadBytes)
	if allocs > deltaReadAllocs || bytes > deltaReadBytes {
		t.Errorf("decode+first-read/account30 as a delta: %.1f allocs and %.0f B, ceilings %d and %d", allocs, bytes, deltaReadAllocs, deltaReadBytes)
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

	// a segment store encodes every frame into a buffer it keeps: an
	// append allocates nothing (it was the frame's bytes, 1 allocation and
	// 192 B for the transaction, before); the ceilings leave room for a
	// stray allocation of the runtime's over the 200 appends
	seg, _, err := segstore.Open(t.TempDir(), segstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	sealed := fixtures["transaction"].Sealed()
	const appendAllocs, appendBytes = 0.1, 32
	allocs, bytes = allocsAndBytes(200, func() {
		if err := seg.Append(sealed); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("segstore append/transaction: %.2f allocs, %.0f B (ceilings %.1f, %d)", allocs, bytes, appendAllocs, appendBytes)
	if allocs > appendAllocs || bytes > appendBytes {
		t.Errorf("segstore append/transaction: %.2f allocs and %.0f B per append, ceilings %.1f and %d", allocs, bytes, appendAllocs, appendBytes)
	}
}
