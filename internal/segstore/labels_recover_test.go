package segstore

import (
	"fmt"
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
)

// TestRecoverThenLabel rides the crash-point harness into the QaC++
// labeler: crash the durable log mid-workload, recover, bootstrap a
// fragment store from the recovered frames, and bump its generation the
// way stream recovery does. The re-labeled index must be identical to a
// from-scratch build over the same recovered prefix — recovery must
// never leave a stale label behind.
func TestRecoverThenLabel(t *testing.T) {
	ins, err := genstore.Generate(genstore.Profile{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*fragment.Fragment, len(ins.Fragments))
	for i, f := range ins.Fragments {
		frags[i] = f.WithSeq(uint64(i + 1))
	}

	// fault-free probe run to size the crash-point space
	probe := NewFaultFS(nil, FaultPlan{Seed: 1})
	crashWorkload(probe, t.TempDir(), frags)
	total := probe.Ops()
	if total < 10 {
		t.Fatalf("suspiciously small op space: %d", total)
	}

	for _, k := range []int64{total / 3, total / 2, 2 * total / 3} {
		dir := t.TempDir()
		ffs := NewFaultFS(nil, FaultPlan{Seed: 1, CrashAtOp: k})
		crashWorkload(ffs, dir, frags)
		if !ffs.Stats().Crashed {
			t.Fatalf("op %d: crash point never fired", k)
		}
		s, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("op %d: reopen: %v", k, err)
		}
		if rep.Degraded != "" {
			t.Fatalf("op %d: degraded recovery: %s", k, rep.Degraded)
		}
		recovered, err := s.All()
		s.Close()
		if err != nil {
			t.Fatalf("op %d: All: %v", k, err)
		}

		// bootstrap path: fill a live store from the durable log, warm its
		// label index, then advance the generation as recovery does
		live := fragment.NewStore(ins.Structure)
		if err := live.AddAll(recovered); err != nil {
			t.Fatalf("op %d: bootstrap: %v", k, err)
		}
		warmed := live.Labels()
		live.AdvanceGeneration()
		relabeled := live.Labels()
		if relabeled == warmed {
			t.Fatalf("op %d: generation bump did not rebuild the label index", k)
		}

		scratch := fragment.NewStore(ins.Structure)
		if err := scratch.AddAll(recovered); err != nil {
			t.Fatalf("op %d: scratch build: %v", k, err)
		}
		ref := scratch.Labels()
		if relabeled.Labeled() != ref.Labeled() || len(live.FillerIDs()) != len(scratch.FillerIDs()) {
			t.Fatalf("op %d: labeled %d/%d fillers, want %d/%d",
				k, relabeled.Labeled(), len(live.FillerIDs()), ref.Labeled(), len(scratch.FillerIDs()))
		}
		if fmt.Sprint(relabeled.DocOrderFIDs()) != fmt.Sprint(ref.DocOrderFIDs()) {
			t.Fatalf("op %d: recovered label order %v != from-scratch %v",
				k, relabeled.DocOrderFIDs(), ref.DocOrderFIDs())
		}
		for _, fid := range ref.DocOrderFIDs() {
			want, _ := ref.LabelOf(fid)
			got, ok := relabeled.LabelOf(fid)
			if !ok || got.Compare(want) != 0 {
				t.Fatalf("op %d: label of %d = %s, want %s", k, fid, got, want)
			}
		}
	}
}
