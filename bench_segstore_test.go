package xcql_test

// Durability benchmarks for the segment store (PR 7).
//
//	BenchmarkRecovery/…          cold Open of a log with n committed
//	                             frames: replay + CRC verification cost
//	BenchmarkSnapshotBootstrap/… SubscribeFrom past the replay window on
//	                             a durable server: the snapshot+delta
//	                             bootstrap path a reconnecting client hits
//
// Under -short only the small log size runs.

import (
	"fmt"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/segstore"
	"xcql/internal/stream"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// segBenchFragments builds n tiny creditLimit fragments with ascending
// valid times and pre-stamped sequence numbers 1..n.
func segBenchFragments(n int) []*fragment.Fragment {
	base := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	frags := make([]*fragment.Fragment, n)
	for i := 0; i < n; i++ {
		payload := xmldom.TextElem("creditLimit", fmt.Sprintf("%d", 1000+i))
		frags[i] = fragment.New(i+1, 4, base.Add(time.Duration(i)*time.Second), payload).
			WithSeq(uint64(i + 1))
	}
	return frags
}

// BenchmarkRecovery measures a cold Open of a multi-segment log: frame
// replay, CRC verification and snapshot loading, the latency a process
// pays before it can serve its first query after a crash.
func BenchmarkRecovery(b *testing.B) {
	sizes := []int{256, 2048}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			seg, _, err := segstore.Open(dir, segstore.Options{
				NoSync:          true,
				MaxSegmentBytes: 64 << 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			frags := segBenchFragments(n)
			for i, f := range frags {
				if err := seg.Append(f); err != nil {
					b.Fatal(err)
				}
				if i == n/2 {
					// half the frames behind a snapshot, half in raw
					// segments — the mixed layout recovery really sees
					if _, err := seg.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := seg.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, rep, err := segstore.Open(dir, segstore.Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Degraded != "" || rep.Frames != n {
					b.Fatalf("recovery report %v, want %d clean frames", rep, n)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotBootstrap measures SubscribeFrom for a subscriber
// whose position predates the in-memory replay window, forcing the
// durable-log bridge: the cost of bootstrapping a long-offline client.
func BenchmarkSnapshotBootstrap(b *testing.B) {
	structure := tagstruct.MustParseString(`<stream:structure>
<tag type="temporal" id="4" name="creditLimit"/>
</stream:structure>`)
	sizes := []int{256, 2048}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			seg, _, err := segstore.Open(b.TempDir(), segstore.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer seg.Close()
			server := stream.NewServer("credit", structure)
			defer server.Close()
			server.SetHistoryLimit(16)
			server.AttachDurable(seg)
			base := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
			for i := 0; i < n; i++ {
				payload := xmldom.TextElem("creditLimit", fmt.Sprintf("%d", 1000+i))
				server.Publish(fragment.New(i+1, 4, base.Add(time.Duration(i)*time.Second), payload))
			}
			server.Sync()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub := server.SubscribeFrom(n+16, 0)
				got := 0
			drain:
				for {
					select {
					case <-sub.C():
						got++
					default:
						break drain
					}
				}
				if got != n {
					b.Fatalf("bootstrapped %d frames, want %d", got, n)
				}
				sub.Cancel()
			}
		})
	}
}
