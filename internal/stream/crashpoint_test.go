package stream

import (
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/segstore"
)

// crashPublish publishes frags through a server writing through to a
// segment store on fs, crashed wherever fs says, and returns the sequence
// numbers its one subscriber received while the simulated process was
// still alive. A write-through the crash failed marks the log broken and
// the server delivers on, as it does after any storage error; what it
// delivers then, the dead process never would have, so only what arrived
// before the crash counts.
func crashPublish(t *testing.T, ffs *segstore.FaultFS, dir string, frags []*fragment.Fragment) []uint64 {
	seg, _, err := segstore.Open(dir, segstore.Options{FS: ffs, MaxSegmentBytes: 512})
	if err != nil {
		return nil
	}
	defer seg.Close()
	s := NewServer("sensors", sensorStructure(t))
	s.AttachDurable(seg)
	sub := s.Subscribe(len(frags), false)
	received := make(chan []uint64)
	go func() {
		var alive []uint64
		for f := range sub.C() {
			if !ffs.Stats().Crashed {
				alive = append(alive, f.Seq)
			}
		}
		received <- alive
	}()
	for _, f := range frags {
		s.Publish(f)
	}
	s.Close()
	return <-received
}

// TestCrashPointWriteThrough is the crash-point harness one layer up: a
// server writing through to a segment store, killed at each filesystem
// operation its publishes perform — inside a batch's writes and its
// fsync included —, then recovered. The recovered log is a clean prefix
// of what was published and holds every fragment any subscriber
// received: no subscriber ever saw a frame its log had not synced. How
// the publishes fall into batches depends on timing, so the crash points
// are those of a fault-free run, and one that a run never reaches is
// skipped.
func TestCrashPointWriteThrough(t *testing.T) {
	frags := []*fragment.Fragment{rootFragment()}
	for i := 1; i < 40; i++ {
		frags = append(frags, eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	probe := segstore.NewFaultFS(nil, segstore.FaultPlan{Seed: 1})
	if got := crashPublish(t, probe, t.TempDir(), frags); len(got) != len(frags) {
		t.Fatalf("fault-free run delivered %d of %d", len(got), len(frags))
	}
	total := probe.Ops()
	fired := 0
	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		ffs := segstore.NewFaultFS(nil, segstore.FaultPlan{Seed: 1, CrashAtOp: k})
		received := crashPublish(t, ffs, dir, frags)
		if ffs.Stats().Crashed {
			fired++
		}
		seg, rep, err := segstore.Open(dir, segstore.Options{})
		if err != nil {
			t.Fatalf("op %d: reopen after crash: %v", k, err)
		}
		if rep.Degraded != "" {
			t.Fatalf("op %d: a clean crash degraded the log: %s", k, rep.Degraded)
		}
		logged, err := seg.All()
		seg.Close()
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		for i, f := range logged {
			if f.Seq != uint64(i+1) || f.String() != frags[i].WithSeq(f.Seq).String() {
				t.Fatalf("op %d: recovered frame %d is seq %d, not the published prefix", k, i, f.Seq)
			}
		}
		for _, seq := range received {
			if seq > uint64(len(logged)) {
				t.Fatalf("op %d: a subscriber received seq %d, the recovered log holds %d frames", k, seq, len(logged))
			}
		}
	}
	if fired < int(total)/2 {
		t.Fatalf("only %d of %d crash points fired", fired, total)
	}
	t.Logf("write-through crash points: %d of %d fired, every received frame recovered", fired, total)
}
