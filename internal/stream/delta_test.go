package stream

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/registry"
	"xcql/internal/segstore"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// The credit stream as its publisher sends it re-announces an account per
// charge: each re-announcement travels as a delta frame over the account's
// version before it. These tests hold a client to the rule for a delta
// whose predecessor it lacks — a predecessor lost or reordered on the way,
// a resume past the replay window, a quarantined segment: a gap, then
// invalidation and reseed, and never a version built without its
// predecessor.

// creditQuery reads every account version's holes: a version built wrong,
// or missing, changes its answer.
const creditQuery = `for $a in stream("credit")//account return count($a/transaction)`

// creditAt is an instant after every charge creditTraffic makes.
var creditAt = genstore.CreditBase.Add(24 * time.Hour)

func creditStructure(t testing.TB) *tagstruct.Structure {
	t.Helper()
	return tagstruct.MustParseString(genstore.CreditStructure)
}

// creditTraffic is the credit stream's initial document on `accounts`
// accounts, then `charges` charges a minute apart, round robin.
func creditTraffic(accounts, charges int) []*fragment.Fragment {
	pub, traffic := genstore.NewCreditPublisher(accounts)
	for k := 1; k <= charges; k++ {
		announce, tx := pub.Charge(k%accounts, k, genstore.CreditBase.Add(time.Duration(k)*time.Minute))
		traffic = append(traffic, announce, tx)
	}
	return traffic
}

// announceAt is the index in creditTraffic(accounts, …) of charge k's
// re-announcement.
func announceAt(accounts, k int) int { return accounts + 2*k - 1 }

// creditWant is creditQuery over a store fed traffic in memory.
func creditWant(t *testing.T, traffic []*fragment.Fragment) string {
	t.Helper()
	st := fragment.NewStore(creditStructure(t))
	if err := st.AddAll(traffic); err != nil {
		t.Fatal(err)
	}
	return creditEval(t, st)
}

func creditEval(t *testing.T, st *fragment.Store) string {
	t.Helper()
	rt := xcql.NewRuntime()
	rt.RegisterStream("credit", st)
	seq, err := rt.MustCompile(creditQuery, xcql.QaCPlus).Eval(creditAt)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(xq.Strings(seq), ",")
}

// wireLog is a durable log that keeps the bytes of every frame it is
// handed, the ones every connection writes.
type wireLog struct {
	mu     sync.Mutex
	frames []string
}

func (l *wireLog) Append(f *fragment.Fragment) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames = append(l.frames, f.String())
	return nil
}
func (l *wireLog) ReadSince(uint64) ([]*fragment.Fragment, error)  { return nil, nil }
func (l *wireLog) SeqCoverage() (min, max uint64, contiguous bool) { return 0, 0, false }

// sealedFrames publishes traffic through a server and returns the server
// and the frames it wrote, as a connection's read loop decodes them.
func sealedFrames(t *testing.T, traffic []*fragment.Fragment) (*Server, []*fragment.Fragment) {
	t.Helper()
	s := NewServer("credit", creditStructure(t))
	log := &wireLog{}
	s.AttachDurable(log)
	s.PublishAll(traffic)
	s.Sync()
	var dec xmldom.Decoder
	out := make([]*fragment.Fragment, len(log.frames))
	for i, wire := range log.frames {
		el, err := dec.Scan(wire)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = fragment.FromScanned(el); err != nil {
			t.Fatal(err)
		}
	}
	return s, out
}

// sameVersions holds every version st stores to the version the publisher
// built: nothing in a client store is a guess.
func sameVersions(t *testing.T, st *fragment.Store, traffic []*fragment.Fragment) {
	t.Helper()
	built := map[[2]int64]*xmldom.Node{}
	for _, f := range traffic {
		built[[2]int64{int64(f.FillerID), f.ValidTime.UnixNano()}] = f.Payload
	}
	for _, fid := range st.FillerIDs() {
		for _, v := range st.Versions(fid) {
			want := built[[2]int64{int64(fid), v.ValidTime.UnixNano()}]
			if got := v.Tree(); got == nil || !got.Equal(want) {
				t.Fatalf("filler %d at %s holds %v, the publisher built %v", fid, v.ValidTime, got, want)
			}
		}
	}
}

// TestDeltaWithoutPredecessorIsAGap: a delta frame whose predecessor the
// client does not hold — dropped on the way, or arriving after it — is no
// version: its seq is a gap ("predecessor missing"), the registry is
// invalidated, and nothing is stored for it. A resume, replaying the
// window, heals both and the registry reseeds; the client's versions are
// then the publisher's, and the standing result the fault-free one.
func TestDeltaWithoutPredecessorIsAGap(t *testing.T) {
	traffic := creditTraffic(2, 8)
	want := creditWant(t, traffic)
	for _, c := range []struct {
		name  string
		order func(frames []*fragment.Fragment, base, next int) []*fragment.Fragment
	}{
		{"dropped predecessor", func(fs []*fragment.Fragment, base, next int) []*fragment.Fragment {
			return slices.Delete(slices.Clone(fs), base, base+1)
		}},
		{"reordered pair", func(fs []*fragment.Fragment, base, next int) []*fragment.Fragment {
			out := slices.Clone(fs[:base])
			out = append(out, fs[next], fs[base])
			out = append(out, fs[base+1:next]...)
			return append(out, fs[next+1:]...)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, frames := sealedFrames(t, traffic)
			defer s.Close()
			// the account re-announced by charges 2 and 4: the second frame
			// is a delta over the first
			base, next := announceAt(2, 2), announceAt(2, 4)
			if !frames[next].IsDelta() || frames[next].FillerID != frames[base].FillerID {
				t.Fatalf("frame %d is not a delta over frame %d", next, base)
			}
			cl := NewClient("credit", creditStructure(t))
			rt := xcql.NewRuntime()
			rt.RegisterStream("credit", cl.Store())
			var degraded int
			r, reg := standing(t, rt.MustCompile(creditQuery, xcql.QaCPlus), creditAt, registry.Options{OnResult: func(res registry.Result) {
				if res.Degraded != "" {
					degraded++
				}
			}})
			cl.AttachRegistry(r)
			for _, f := range c.order(frames, base, next) {
				cl.Apply(f)
			}
			if v := cl.Store().Versions(frames[next].FillerID); slices.ContainsFunc(v, func(f *fragment.Fragment) bool {
				return f.ValidTime.Equal(frames[next].ValidTime)
			}) {
				t.Fatal("the delta without its predecessor was stored")
			}
			st := cl.Stats()
			if st.Missing == 0 || !slices.ContainsFunc(cl.Gaps(), func(g Gap) bool {
				return g.Reason == reasonNoPredecessor && g.From == frames[next].Seq
			}) {
				t.Fatalf("no gap for the delta: stats %+v, gaps %v", st, cl.Gaps())
			}
			if degraded == 0 {
				t.Fatal("the registry was not invalidated")
			}
			// resume: the window replays the missing seqs in the full form
			sub := s.SubscribeFrom(len(traffic), cl.resumePos())
			sub.Cancel()
			for f := range sub.C() {
				cl.Apply(f)
			}
			if st := cl.Stats(); st.Missing != 0 || cl.Store().Len() != len(traffic) {
				t.Fatalf("the resume did not heal: store %d of %d, stats %+v", cl.Store().Len(), len(traffic), st)
			}
			sameVersions(t, cl.Store(), traffic)
			if got := strings.Join(xq.Strings(reg.ItemsSnapshot()), ","); got != want {
				t.Fatalf("standing result %s, fault-free %s", got, want)
			}
			if r.Stats().Reseeds == 0 {
				t.Fatal("the registry never reseeded")
			}
		})
	}
}

// TestDeltaChaosConverges: the credit stream over a transport that drops,
// duplicates and reorders frames and resets the connection: delta frames
// whose predecessor was lost or overtaken become gaps, which the resumes
// heal, and the client ends with the publisher's versions, never a
// guessed one, and the fault-free standing result.
func TestDeltaChaosConverges(t *testing.T) {
	traffic := creditTraffic(3, 30)
	want := creditWant(t, traffic)
	s := NewServer("credit", creditStructure(t))
	defer s.Close()
	fi := NewFaultInjector(FaultPlan{Seed: 43, DropProb: 0.15, DupProb: 0.1, ReorderProb: 0.15, ResetEvery: 11})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi})
	s.Publish(traffic[0])
	c, err := Dial(addr, testDialOptions(43))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range traffic[1:] {
		before := fi.Stats().Frames
		s.Publish(f)
		waitFor(t, 50*time.Millisecond, func() bool { return fi.Stats().Frames > before })
	}
	s.Close()
	if !waitFor(t, 15*time.Second, func() bool { return c.Store().Len() == len(traffic) && c.Stats().Missing == 0 }) {
		t.Fatalf("never converged: store %d of %d, stats %+v, %v", c.Store().Len(), len(traffic), c.Stats(), fi)
	}
	if fs := fi.Stats(); fs.Dropped < 1 || fs.Reordered < 1 {
		t.Fatalf("chaos run was too gentle: %v", fi)
	}
	t.Logf("gaps %v", c.Gaps())
	sameVersions(t, c.Store(), traffic)
	if got := creditEval(t, c.Store()); got != want {
		t.Fatalf("result after chaos %s, fault-free %s", got, want)
	}
}

// TestResumePastWindowSendsFullForms: a client that resumes behind the
// replay window writes the skipped seqs off — an unrecoverable gap, which
// invalidates the registry — and the server sends it, in the full form,
// every later re-announcement whose predecessor it was never sent: it
// stores each of them as the publisher built it, with no further gap.
func TestResumePastWindowSendsFullForms(t *testing.T) {
	// five accounts: a re-announcement's predecessor is ten frames back,
	// out of the four-frame window by the time it is sealed over
	traffic := creditTraffic(5, 30)
	s := NewServer("credit", creditStructure(t))
	defer s.Close()
	s.SetHistoryLimit(4)
	// the 10th frame dies mid-frame, cutting the client off while the
	// traffic floods past the window
	fi := NewFaultInjector(FaultPlan{Seed: 7, ResetEvery: 10})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi})
	c, err := Dial(addr, DialOptions{Reconnect: true, InitialBackoff: 150 * time.Millisecond,
		MaxBackoff: time.Second, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range traffic[:8] {
		s.Publish(f)
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.Store().Len() == 8 }) {
		t.Fatalf("the client got %d of the first 8 frames", c.Store().Len())
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("credit", c.Store())
	var mu sync.Mutex
	degraded := 0
	r, _ := standing(t, rt.MustCompile(creditQuery, xcql.QaCPlus), creditAt, registry.Options{OnResult: func(res registry.Result) {
		mu.Lock()
		if res.Degraded != "" {
			degraded++
		}
		mu.Unlock()
	}})
	c.AttachRegistry(r)
	s.PublishAll(traffic[8:30])
	// the rest arrives after the client is back
	if !waitFor(t, 10*time.Second, func() bool { return c.Stats().ReconnectDegraded >= 1 }) {
		t.Fatalf("the client never resumed past the window: %+v", c.Stats())
	}
	s.PublishAll(traffic[30:])
	if !waitFor(t, 10*time.Second, func() bool { return c.LastSeq() == uint64(len(traffic)) }) {
		t.Fatalf("the client never caught up: %+v", c.Stats())
	}
	st := c.Stats()
	if st.Lost == 0 {
		t.Fatalf("the resume wrote nothing off: %+v", st)
	}
	for _, g := range c.Gaps() {
		if g.Reason == reasonNoPredecessor {
			t.Fatalf("a re-announcement over a written-off version came as a delta: gaps %v", c.Gaps())
		}
	}
	mu.Lock()
	if degraded == 0 {
		t.Fatal("the unrecoverable gap did not invalidate the registry")
	}
	mu.Unlock()
	sameVersions(t, c.Store(), traffic)
}

// TestQuarantinedPredecessorIsAGap: a segment store whose segment holding
// an account's version is quarantined replays the re-announcement sealed
// over it without it: the recovery report counts it, and a client fed by
// the server recovered from the log stores no version for it, counts a
// gap and has its registry invalidated.
func TestQuarantinedPredecessorIsAGap(t *testing.T) {
	traffic := creditTraffic(2, 6)
	dir := t.TempDir()
	seg, _, err := segstore.Open(dir, segstore.Options{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer("credit", creditStructure(t))
	s.AttachDurable(seg)
	for _, f := range traffic {
		s.Publish(f)
		s.Sync() // a batch of one: one frame a segment
	}
	s.Close()
	seg.Close()
	// one frame a segment: corrupt the one holding the re-announcement of
	// charge 2, which charge 4's extends, and charge 6's charge 4's
	base, next := announceAt(2, 2), announceAt(2, 4)
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != len(traffic) {
		t.Fatalf("%d segments for %d frames: %v", len(segs), len(traffic), err)
	}
	data, err := os.ReadFile(segs[base])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 1 // a payload byte: the frame's CRC no longer matches
	if err := os.WriteFile(segs[base], data, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, rep, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if rep.MissingPredecessors != 2 || rep.Degraded == "" || len(rep.QuarantinedFiles) != 1 {
		t.Fatalf("recovery report %+v: want the segment quarantined and two deltas without their predecessor", rep)
	}
	rs, err := RecoverServer("credit", creditStructure(t), seg)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	c := NewClient("credit", creditStructure(t))
	rt := xcql.NewRuntime()
	rt.RegisterStream("credit", c.Store())
	degraded := 0
	r, _ := standing(t, rt.MustCompile(creditQuery, xcql.QaCPlus), creditAt, registry.Options{OnResult: func(res registry.Result) {
		if res.Degraded != "" {
			degraded++
		}
	}})
	c.AttachRegistry(r)
	sub := rs.SubscribeFrom(len(traffic), 0)
	sub.Cancel()
	c.Consume(sub)
	if !slices.ContainsFunc(c.Gaps(), func(g Gap) bool { return g.Reason == reasonNoPredecessor && g.From == uint64(next+1) }) {
		t.Fatalf("no gap for the delta over the quarantined version: %v", c.Gaps())
	}
	for _, v := range c.Store().Versions(traffic[next].FillerID) {
		if v.ValidTime.Equal(traffic[next].ValidTime) {
			t.Fatal("the delta without its predecessor was stored")
		}
	}
	if degraded == 0 {
		t.Fatal("the registry was not invalidated")
	}
	sameVersions(t, c.Store(), traffic)
}

// TestLateJoinerOfARecoveredLogGetsFullForms: a server recovered from a
// log of delta frames, its window trimmed and no log to bridge from,
// replays to a fresh client the deltas whose predecessor it no longer
// sends in the full form, and the rest as they were stored: the client
// stores the publisher's versions without a gap.
func TestLateJoinerOfARecoveredLogGetsFullForms(t *testing.T) {
	traffic := creditTraffic(2, 10)
	dir := t.TempDir()
	seg, _, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer("credit", creditStructure(t))
	s.AttachDurable(seg)
	s.PublishAll(traffic)
	s.Close()
	seg.Close()
	if seg, _, err = segstore.Open(dir, segstore.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	rs, err := RecoverServer("credit", creditStructure(t), seg)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.AttachDurable(nil)
	rs.SetHistoryLimit(6)
	c, err := Dial(startFaultyServer(t, rs, ServeOptions{}), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !waitFor(t, 5*time.Second, func() bool { return c.LastSeq() == uint64(len(traffic)) }) {
		t.Fatalf("the client never caught up: %+v", c.Stats())
	}
	if st := c.Stats(); st.Missing != 0 || st.Received != 6 || len(c.Gaps()) != 0 {
		t.Fatalf("stats %+v, gaps %v: want the window's six frames and no gap", st, c.Gaps())
	}
	linked := 0
	for _, fid := range c.Store().FillerIDs() {
		for _, v := range c.Store().Versions(fid) {
			if prev, _ := v.Predecessor(); prev != nil {
				linked++
			}
		}
	}
	if linked == 0 {
		t.Fatal("no replayed re-announcement came as a delta frame over one the client got")
	}
	sameVersions(t, c.Store(), traffic)
}

// TestLogAttachedMidStreamHoldsEveryPredecessor: a durable log attached
// after a stream began never gets a delta frame over a version it does
// not hold — a re-announcement over a version published before the log
// was there goes to it in the full form — so its replay links every delta.
func TestLogAttachedMidStreamHoldsEveryPredecessor(t *testing.T) {
	traffic := creditTraffic(3, 12)
	dir := t.TempDir()
	seg, _, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer("credit", creditStructure(t))
	s.PublishAll(traffic[:15])
	s.AttachDurable(seg)
	s.PublishAll(traffic[15:])
	s.Close()
	seg.Close()
	seg, rep, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if rep.MissingPredecessors != 0 || rep.Degraded != "" {
		t.Fatalf("recovery report %+v", rep)
	}
	frames, err := seg.All()
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	st := fragment.NewStore(creditStructure(t))
	for _, f := range frames {
		if f.IsDelta() {
			deltas++
		}
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if deltas == 0 || len(frames) != len(traffic)-15 {
		t.Fatalf("the log holds %d frames, %d of them deltas", len(frames), deltas)
	}
	sameVersions(t, st, traffic)
}
