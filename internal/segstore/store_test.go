package segstore

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

func ts(s string) time.Time {
	t, err := time.Parse(xtime.Layout, s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

// frag builds one standalone filler; payload text keeps frames distinct.
func frag(id, tsid int, at string, val string, seq uint64) *fragment.Fragment {
	el := xmldom.MustParseString(`<event><value>` + val + `</value></event>`).Root()
	f := fragment.New(id, tsid, ts(at), el)
	f.Seq = seq
	return f
}

// nFrags builds n sequenced fragments across a couple of tsids.
func nFrags(n int) []*fragment.Fragment {
	out := make([]*fragment.Fragment, n)
	for i := 0; i < n; i++ {
		at := ts("2003-01-01T00:00:00").Add(time.Duration(i) * time.Minute)
		out[i] = frag(i+1, 2+i%3, at.Format(xtime.Layout), "v"+strconv.Itoa(i), uint64(i+1))
	}
	return out
}

// wires renders fragments to their wire form for byte-identity checks.
func wires(fs []*fragment.Fragment) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

func mustEqualWires(t *testing.T, got, want []*fragment.Fragment) {
	t.Helper()
	g, w := wires(got), wires(want)
	if len(g) != len(w) {
		t.Fatalf("got %d fragments, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("fragment %d differs:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
}

func openT(t *testing.T, dir string, opts Options) (*Store, *RecoveryReport) {
	t.Helper()
	s, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rep
}

func appendAll(t *testing.T, s *Store, fs []*fragment.Fragment) {
	t.Helper()
	for _, f := range fs {
		if err := s.Append(f); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(20)
	s, rep := openT(t, dir, Options{})
	if rep.Frames != 0 || rep.Degraded != "" {
		t.Fatalf("fresh dir recovery not empty: %+v", rep)
	}
	appendAll(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rep2 := openT(t, dir, Options{})
	defer s2.Close()
	if rep2.Frames != len(want) {
		t.Fatalf("recovered %d frames, want %d", rep2.Frames, len(want))
	}
	if rep2.Degraded != "" {
		t.Fatalf("clean shutdown reported degraded: %s", rep2.Degraded)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)
	if min, max, contig := s2.SeqCoverage(); min != 1 || max != 20 || !contig {
		t.Fatalf("seq coverage = (%d,%d,%v), want (1,20,true)", min, max, contig)
	}
}

func TestSegmentRollAndReadBack(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(30)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 256})
	appendAll(t, s, want)
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("tiny segments should have rolled, got %d", st.Segments)
	}
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)
	s.Close()

	s2, rep := openT(t, dir, Options{MaxSegmentBytes: 256})
	defer s2.Close()
	if rep.Frames != len(want) {
		t.Fatalf("recovered %d frames, want %d", rep.Frames, len(want))
	}
}

func TestSnapshotThenDelta(t *testing.T) {
	dir := t.TempDir()
	all := nFrags(24)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 256})
	appendAll(t, s, all[:16])
	gen, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first snapshot gen = %d, want 1", gen)
	}
	if st := s.Stats(); st.Segments != 0 || st.SnapshotFrames != 16 {
		t.Fatalf("after snapshot: segments=%d snapFrames=%d", st.Segments, st.SnapshotFrames)
	}
	appendAll(t, s, all[16:])
	s.Close()

	s2, rep := openT(t, dir, Options{MaxSegmentBytes: 256})
	defer s2.Close()
	if rep.SnapshotGen != 1 || rep.SnapshotFrames != 16 {
		t.Fatalf("snapshot not recovered: %+v", rep)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, all)
	if _, err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.SnapshotGen != 2 {
		t.Fatalf("second snapshot gen = %d, want 2", st.SnapshotGen)
	}
}

func TestSnapshotEveryAutoSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{SnapshotEvery: 5})
	defer s.Close()
	appendAll(t, s, nFrags(12))
	if st := s.Stats(); st.Snapshots < 2 {
		t.Fatalf("expected >= 2 auto snapshots after 12 appends with SnapshotEvery=5, got %d", st.Snapshots)
	}
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("got %d fragments, want 12", len(got))
	}
}

// --- recovery edge cases (satellite: empty dir, snapshot-with-no-segments,
// segment-with-no-snapshot, duplicates across a segment boundary, zero-length
// tail file) ---

func TestRecoveryEmptyDir(t *testing.T) {
	s, rep := openT(t, t.TempDir(), Options{})
	defer s.Close()
	if rep.Frames != 0 || rep.Segments != 0 || rep.SnapshotGen != 0 || rep.Degraded != "" {
		t.Fatalf("empty dir should recover to nothing: %+v", rep)
	}
	got, err := s.All()
	if err != nil || len(got) != 0 {
		t.Fatalf("All on empty store = %d frags, err %v", len(got), err)
	}
}

func TestRecoverySnapshotWithNoSegments(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(8)
	s, _ := openT(t, dir, Options{})
	appendAll(t, s, want)
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rep := openT(t, dir, Options{})
	defer s2.Close()
	if rep.Segments != 0 || rep.SnapshotFrames != 8 || rep.Frames != 8 {
		t.Fatalf("snapshot-only recovery: %+v", rep)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)
}

func TestRecoverySegmentsWithNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(8)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 200})
	appendAll(t, s, want)
	s.Close()

	s2, rep := openT(t, dir, Options{MaxSegmentBytes: 200})
	defer s2.Close()
	if rep.SnapshotGen != 0 || rep.Frames != 8 {
		t.Fatalf("segments-only recovery: %+v", rep)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)
}

func TestRecoveryDuplicateFramesAcrossSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(10)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 200})
	appendAll(t, s, want)
	s.Close()

	// simulate a compaction that crashed after writing its output but
	// before removing an input: the same LSNs live in two files
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			first = e.Name()
			break
		}
	}
	if first == "" {
		t.Fatal("no segment files found")
	}
	data, err := os.ReadFile(filepath.Join(dir, first))
	if err != nil {
		t.Fatal(err)
	}
	dup := "cseg-0000000000000001-g9-0.seg"
	if err := os.WriteFile(filepath.Join(dir, dup), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rep := openT(t, dir, Options{MaxSegmentBytes: 200})
	defer s2.Close()
	if rep.Frames != len(want) {
		t.Fatalf("duplicated LSNs must dedup: recovered %d frames, want %d", rep.Frames, len(want))
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)
}

func TestRecoveryZeroLengthTailFile(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(6)
	s, _ := openT(t, dir, Options{})
	appendAll(t, s, want)
	s.Close()

	// a crash between segment create and its header write leaves a
	// zero-length file sorting after the live ones
	if err := os.WriteFile(filepath.Join(dir, segName(999)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rep := openT(t, dir, Options{})
	defer s2.Close()
	if rep.EmptySegments != 1 {
		t.Fatalf("zero-length tail file not cleaned: %+v", rep)
	}
	if rep.Degraded != "" {
		t.Fatalf("zero-length tail is not data loss, got degraded: %s", rep.Degraded)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)
}

func TestRecoveryTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(6)
	s, _ := openT(t, dir, Options{})
	appendAll(t, s, want)
	s.Close()

	// append half a frame to the sealed segment: a torn trailing write
	entries, _ := os.ReadDir(dir)
	var seg string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	full := appendFrame(nil, 99, want[0].String())
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rep := openT(t, dir, Options{})
	defer s2.Close()
	if rep.TornSegments != 1 || rep.TornBytes != int64(len(full)/2) {
		t.Fatalf("torn tail not repaired: %+v", rep)
	}
	if rep.Degraded != "" {
		t.Fatalf("a torn tail is an uncommitted write, not degradation: %s", rep.Degraded)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)
}

func TestRecoveryCorruptInteriorQuarantined(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(20)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 300})
	appendAll(t, s, want)
	s.Close()

	// flip a payload byte in the middle of the FIRST segment: frames
	// before it salvage, frames after it in that file are lost, later
	// segments survive
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	if len(names) < 2 {
		t.Fatalf("need >= 2 segments, got %v", names)
	}
	victim := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(victim)
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rep := openT(t, dir, Options{MaxSegmentBytes: 300})
	defer s2.Close()
	if rep.Degraded == "" {
		t.Fatal("interior corruption must be reported as degraded, never silent")
	}
	if len(rep.QuarantinedFiles) != 1 {
		t.Fatalf("expected 1 quarantined file: %+v", rep.QuarantinedFiles)
	}
	if _, err := os.Stat(filepath.Join(dir, names[0]+".quarantine")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	// recovered = salvaged prefix of the victim + the untouched rest:
	// a subsequence of want, holding every salvaged and every later frame
	if len(got) >= len(want) || len(got) == 0 {
		t.Fatalf("recovered %d frames, want a strict non-empty subset of %d", len(got), len(want))
	}
	byWire := make(map[string]bool, len(want))
	for _, w := range wires(want) {
		byWire[w] = true
	}
	for _, g := range wires(got) {
		if !byWire[g] {
			t.Fatalf("recovered a fragment that was never appended: %s", g)
		}
	}
	// the report must carry the loss out loud
	if rep.String() == "" || !strings.Contains(rep.String(), "DEGRADED") {
		t.Fatalf("report string hides degradation: %s", rep.String())
	}

	// and a re-open of the degraded dir must be stable (salvage segment
	// replaces the quarantined one, no new quarantines)
	s2.Close()
	s3, rep3 := openT(t, dir, Options{MaxSegmentBytes: 300})
	defer s3.Close()
	if len(rep3.QuarantinedFiles) != 0 {
		t.Fatalf("second open quarantined again: %+v", rep3.QuarantinedFiles)
	}
	got3, err := s3.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got3, got)
}

func TestCompactPartitionsAndPreservesLog(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(40)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 400})
	defer s.Close()
	appendAll(t, s, want)
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.InputSegments < 2 || st.OutputSegments == 0 {
		t.Fatalf("compaction did nothing: %+v", st)
	}
	if st.TSIDs != 3 || st.Windows == 0 {
		t.Fatalf("expected 3 tsid partitions with coalesced windows: %+v", st)
	}
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)

	// per-tsid reads prune segments via the partition metadata
	before := s.Stats().SegmentsSkipped
	one, err := s.ReadTSID(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range one {
		if f.TSID != 2 {
			t.Fatalf("ReadTSID(2) returned tsid %d", f.TSID)
		}
	}
	var wantOne int
	for _, f := range want {
		if f.TSID == 2 {
			wantOne++
		}
	}
	if len(one) != wantOne {
		t.Fatalf("ReadTSID(2) = %d frags, want %d", len(one), wantOne)
	}
	if s.Stats().SegmentsSkipped <= before {
		t.Fatal("compacted layout should let ReadTSID skip foreign partitions")
	}
}

func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(30)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 300})
	appendAll(t, s, want)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, []*fragment.Fragment{frag(99, 2, "2003-02-01T00:00:00", "tail", 31)})
	s.Close()

	s2, rep := openT(t, dir, Options{MaxSegmentBytes: 300})
	defer s2.Close()
	if rep.Degraded != "" {
		t.Fatalf("compacted store reopened degraded: %s", rep.Degraded)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("got %d frames, want %d", len(got), len(want)+1)
	}
	mustEqualWires(t, got[:len(want)], want)
}

func TestCompactGenerationSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	first := nFrags(30)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 300})
	appendAll(t, s, first)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// restart: the generation counter must resume past the surviving cseg
	// outputs, or the next compaction names an output after one of its own
	// inputs, renames over it, and then deletes it as consumed — losing
	// every frame the input held
	s2, _ := openT(t, dir, Options{MaxSegmentBytes: 300})
	var more []*fragment.Fragment
	for i := 0; i < 10; i++ {
		at := ts("2003-03-01T00:00:00").Add(time.Duration(i) * time.Minute)
		more = append(more, frag(100+i, 2+i%3, at.Format(xtime.Layout), "w"+strconv.Itoa(i), uint64(31+i)))
	}
	appendAll(t, s2, more)
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]*fragment.Fragment{}, first...), more...)
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, want)
	s2.Close()

	s3, rep := openT(t, dir, Options{MaxSegmentBytes: 300})
	defer s3.Close()
	if rep.Degraded != "" {
		t.Fatalf("twice-compacted store reopened degraded: %s", rep.Degraded)
	}
	got3, err := s3.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got3, want)
}

func TestRuntimeCorruptionBreaksCoverageClaim(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(20)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 300})
	defer s.Close()
	appendAll(t, s, want)
	if _, _, contig := s.SeqCoverage(); !contig {
		t.Fatal("clean log must start contiguous")
	}

	// flip a byte in a sealed segment after the clean open: at-rest
	// corruption a runtime read will hit
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	if len(names) < 2 {
		t.Fatalf("need >= 2 segments, got %v", names)
	}
	victim := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(victim)
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := s.ReadSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(want) {
		t.Fatalf("corruption dropped nothing (%d of %d); test setup is broken", len(got), len(want))
	}
	// the read quarantined frames, so the coverage claim must stop
	// promising a gap-free bootstrap — ResumeFloor feeds off this
	if _, _, contig := s.SeqCoverage(); contig {
		t.Fatal("runtime read dropped frames but SeqCoverage still claims contiguity")
	}
	if s.Stats().QuarantinedFrames == 0 {
		t.Fatal("quarantined region not counted")
	}
}

func TestSalvageDoesNotClobberExistingSalvageSegment(t *testing.T) {
	dir := t.TempDir()
	want := nFrags(12)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 250})
	appendAll(t, s, want)
	s.Close()

	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	if len(names) < 2 {
		t.Fatalf("need >= 2 segments, got %v", names)
	}
	// a previous crashed recovery left a full salvage copy of the first
	// segment under the very name the next salvage would pick
	first := filepath.Join(dir, names[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, salvageName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// now corrupt the original near its tail: the clean prefix salvages
	// under a first LSN of 1, colliding with the planted file — which
	// holds MORE than the salvage would (its last frame), so truncating
	// it over would lose a committed frame
	data = append([]byte(nil), data...)
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rep := openT(t, dir, Options{MaxSegmentBytes: 250})
	if rep.Degraded == "" {
		t.Fatal("corrupt segment must be reported degraded")
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	// the planted salvage file still holds the whole first segment, so
	// nothing may actually be missing
	mustEqualWires(t, got, want)
	s2.Close()

	// and the layout must be stable: reopening neither quarantines again
	// nor double-registers a name
	s3, rep3 := openT(t, dir, Options{MaxSegmentBytes: 250})
	defer s3.Close()
	if len(rep3.QuarantinedFiles) != 0 {
		t.Fatalf("second open quarantined again: %+v", rep3.QuarantinedFiles)
	}
	got3, err := s3.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got3, want)
}

func TestAppendAfterInjectedWriteError(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultPlan{Seed: 7, ShortWriteProb: 0.4})
	s, _ := openT(t, dir, Options{FS: ffs, MaxSegmentBytes: 300})
	var acked []*fragment.Fragment
	var failures int
	for _, f := range nFrags(30) {
		if err := s.Append(f); err != nil {
			failures++
			continue
		}
		acked = append(acked, f)
	}
	if failures == 0 {
		t.Fatal("fault plan injected no failures")
	}
	if st := s.Stats(); st.AppendErrors != int64(failures) {
		t.Fatalf("AppendErrors = %d, want %d", st.AppendErrors, failures)
	}
	s.Close()

	// reopen on the clean filesystem: every acked append must be there,
	// in order, with nothing corrupt
	s2, rep := openT(t, dir, Options{})
	defer s2.Close()
	if rep.Degraded != "" {
		t.Fatalf("short writes were repaired in place, store must not be degraded: %s", rep.Degraded)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, acked)
}

func TestSyncErrorMeansUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultPlan{Seed: 3, SyncErrProb: 0.5})
	s, _ := openT(t, dir, Options{FS: ffs})
	var acked []*fragment.Fragment
	for _, f := range nFrags(20) {
		if err := s.Append(f); err == nil {
			acked = append(acked, f)
		}
	}
	s.Close()

	s2, _ := openT(t, dir, Options{})
	defer s2.Close()
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	// recovered ⊇ acked (an fsync error may still have hit the disk, but
	// nothing acknowledged may be missing) and recovered ⊆ appended
	gotW := wires(got)
	ackedW := wires(acked)
	i := 0
	for _, g := range gotW {
		if i < len(ackedW) && g == ackedW[i] {
			i++
		}
	}
	if i != len(ackedW) {
		t.Fatalf("an acknowledged append is missing after recovery: matched %d of %d", i, len(ackedW))
	}
}

func TestBitFlipNeverPanicsAndNeverInventsData(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dir := t.TempDir()
		ffs := NewFaultFS(nil, FaultPlan{Seed: seed, BitFlipProb: 0.3})
		s, _ := openT(t, dir, Options{FS: ffs})
		want := nFrags(15)
		for _, f := range want {
			_ = s.Append(f) // flips succeed silently; CRC catches them later
		}
		s.Close()

		s2, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("seed %d: open after bit flips: %v", seed, err)
		}
		got, err := s2.All()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		byWire := make(map[string]bool)
		for _, w := range wires(want) {
			byWire[w] = true
		}
		for _, g := range wires(got) {
			if !byWire[g] {
				t.Fatalf("seed %d: recovery invented a fragment: %s", seed, g)
			}
		}
		if len(got) < len(want) && rep.Degraded == "" && rep.TornSegments == 0 {
			t.Fatalf("seed %d: frames lost (%d/%d) without any report", seed, len(got), len(want))
		}
		s2.Close()
	}
}

func TestSeqCoverageContiguity(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	appendAll(t, s, []*fragment.Fragment{
		frag(1, 2, "2003-01-01T00:00:00", "a", 1),
		frag(2, 2, "2003-01-01T00:01:00", "b", 2),
		frag(3, 2, "2003-01-01T00:02:00", "c", 5), // hole: 3 and 4 missing
	})
	if _, _, contig := s.SeqCoverage(); contig {
		t.Fatal("a seq hole must break the contiguity claim")
	}
}

func TestReadSince(t *testing.T) {
	dir := t.TempDir()
	all := nFrags(12)
	s, _ := openT(t, dir, Options{MaxSegmentBytes: 256})
	defer s.Close()
	appendAll(t, s, all[:8])
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, all[8:])
	got, err := s.ReadSince(5)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualWires(t, got, all[5:])
}

func TestRegisterMetrics(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	appendAll(t, s, nFrags(4))
	r := obs.NewRegistry()
	s.RegisterMetrics(r, "segstore")
	vals := map[string]int64{}
	r.Each(func(name string, v int64) { vals[name] = v })
	if vals["segstore_appends"] != 4 {
		t.Fatalf("segstore_appends = %d, want 4", vals["segstore_appends"])
	}
	if vals["segstore_fsyncs"] == 0 {
		t.Fatal("fsync counter not exposed")
	}
	for _, name := range []string{"segstore_segments", "segstore_segment_bytes", "segstore_frames",
		"segstore_recovery_ns", "segstore_quarantined_frames", "segstore_recovery_degraded"} {
		if _, ok := vals[name]; !ok {
			t.Fatalf("gauge %s not registered", name)
		}
	}
}
