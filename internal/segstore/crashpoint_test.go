package segstore

import (
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
)

// crashWorkload drives one store lifetime over fs: append every fragment
// in batches of one to four (AppendBatch; fsync on, tiny segments so the
// log rolls), with a snapshot before the batch that reaches a third of
// the way in and a second one, replacing the first, before the batch that
// reaches two thirds. It returns the acknowledged appends, whole batches;
// the first error is the simulated process death and stops the run,
// exactly as a crash would, inside a batch's writes or its fsync too.
func crashWorkload(fs FS, dir string, frags []*fragment.Fragment) []*fragment.Fragment {
	s, _, err := Open(dir, Options{FS: fs, MaxSegmentBytes: 512})
	if err != nil {
		return nil
	}
	defer s.Close()
	snapAt := []int{len(frags) / 3, 2 * len(frags) / 3}
	var acked []*fragment.Fragment
	for i, run := 0, 0; i < len(frags); run++ {
		end := min(i+1+run%4, len(frags))
		if len(snapAt) > 0 && end > snapAt[0] {
			snapAt = snapAt[1:]
			if _, err := s.Snapshot(); err != nil {
				return acked
			}
		}
		if err := s.AppendBatch(frags[i:end]); err != nil {
			return acked
		}
		acked = append(acked, frags[i:end]...)
		i = end
	}
	return acked
}

// crashFragments derives a sequenced fragment stream from the diff
// harness's generator, so the items carry the same shapes every other
// correctness suite exercises.
func crashFragments(t testing.TB, seed int64, limit int) []*fragment.Fragment {
	t.Helper()
	var out []*fragment.Fragment
	// one generated instance is small; concatenate consecutive seeds
	// until the stream is long enough to roll segments and snapshot twice
	for s := seed; len(out) < limit; s++ {
		ins, err := genstore.Generate(genstore.Profile{Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ins.Fragments {
			if len(out) >= limit {
				break
			}
			out = append(out, f.WithSeq(uint64(len(out)+1)))
		}
	}
	return out
}

// TestCrashPointHarness is the tentpole proof: enumerate every mutating
// filesystem operation the workload performs — a batch's frame writes and
// its fsync, segment creates, snapshot writes, renames, the old
// snapshot's removal — and crash the process at each one in turn. After
// every crash, reopening the directory must yield a clean, non-degraded
// store whose contents are byte-identical to a prefix of the appended
// sequence and include every acknowledged batch.
func TestCrashPointHarness(t *testing.T) {
	frags := crashFragments(t, 42, 30)
	want := wires(frags)

	// pass 0: no faults — count the operation space and pin full fidelity
	probe := NewFaultFS(nil, FaultPlan{Seed: 1})
	dir := t.TempDir()
	acked := crashWorkload(probe, dir, frags)
	if len(acked) != len(frags) {
		t.Fatalf("fault-free run acked %d of %d", len(acked), len(frags))
	}
	s, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != "" {
		t.Fatalf("fault-free run degraded: %s", rep.Degraded)
	}
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, frags)
	s.Close()
	total := probe.Ops()
	if total < 50 {
		t.Fatalf("suspiciously small crash-point space: %d ops", total)
	}

	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		ffs := NewFaultFS(nil, FaultPlan{Seed: 1, CrashAtOp: k})
		acked := crashWorkload(ffs, dir, frags)
		if !ffs.Stats().Crashed {
			t.Fatalf("op %d: crash point never fired", k)
		}

		s, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("op %d: reopen after crash: %v", k, err)
		}
		if rep.Degraded != "" {
			t.Fatalf("op %d: a clean crash must never degrade the store: %s", k, rep.Degraded)
		}
		got, err := s.All()
		if err != nil {
			t.Fatalf("op %d: All after recovery: %v", k, err)
		}
		s.Close()

		gotW := wires(got)
		if len(gotW) < len(acked) {
			t.Fatalf("op %d: recovered %d items but %d were acknowledged", k, len(gotW), len(acked))
		}
		if len(gotW) > len(want) {
			t.Fatalf("op %d: recovered %d items, more than the %d appended", k, len(gotW), len(want))
		}
		for i, g := range gotW {
			if g != want[i] {
				t.Fatalf("op %d: recovered item %d is not the committed prefix:\n got %s\nwant %s", k, i, g, want[i])
			}
		}
	}
	t.Logf("crash-point harness: %d crash points, all recovered to the committed prefix", total)
}

// TestCrashPointHarnessReplaysTwice pins determinism: the same plan
// yields the same acked set and the same recovered bytes.
func TestCrashPointHarnessReplaysTwice(t *testing.T) {
	frags := crashFragments(t, 7, 20)
	probe := NewFaultFS(nil, FaultPlan{Seed: 1})
	crashWorkload(probe, t.TempDir(), frags)
	k := probe.Ops() / 2
	var prevAcked, prevGot []string
	for round := 0; round < 2; round++ {
		dir := t.TempDir()
		ffs := NewFaultFS(nil, FaultPlan{Seed: 1, CrashAtOp: k})
		acked := wires(crashWorkload(ffs, dir, frags))
		s, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		all, err := s.All()
		if err != nil {
			t.Fatal(err)
		}
		got := wires(all)
		s.Close()
		if round == 1 {
			if len(acked) != len(prevAcked) || len(got) != len(prevGot) {
				t.Fatalf("crash replay diverged: acked %d vs %d, recovered %d vs %d",
					len(acked), len(prevAcked), len(got), len(prevGot))
			}
			for i := range got {
				if got[i] != prevGot[i] {
					t.Fatalf("crash replay diverged at item %d", i)
				}
			}
		}
		prevAcked, prevGot = acked, got
	}
}
