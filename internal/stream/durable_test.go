package stream

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/registry"
	"xcql/internal/segstore"
	"xcql/internal/xcql"
)

// the segment store is the production DurableLog
var _ DurableLog = (*segstore.Store)(nil)

func openSegT(t *testing.T) *segstore.Store {
	t.Helper()
	s, _, err := segstore.Open(t.TempDir(), segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func drain(sub *Subscription) []*fragment.Fragment {
	var out []*fragment.Fragment
	for {
		select {
		case f, ok := <-sub.C():
			if !ok {
				return out
			}
			out = append(out, f)
		default:
			return out
		}
	}
}

// TestSubscribeFromBridgesDurableLog pins the in-process bridge: a
// subscription resuming from before the trimmed in-memory window is
// served the missing prefix from the durable log, not a gap.
func TestSubscribeFromBridgesDurableLog(t *testing.T) {
	seg := openSegT(t)
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.SetHistoryLimit(2)
	s.AttachDurable(seg)

	s.Publish(rootFragment())
	for i := 1; i <= 9; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	s.Sync()
	// the window holds only seqs 9..10, but the floor reaches to genesis
	if st := s.Stats(); st.OldestRetained != 9 || st.ResumeFloor != 0 {
		t.Fatalf("window [%d..] floor %d, want window [9..] floor 0", st.OldestRetained, st.ResumeFloor)
	}

	sub := s.SubscribeFrom(32, 0)
	defer sub.Cancel()
	got := drain(sub)
	if len(got) != 10 {
		t.Fatalf("bridged replay delivered %d fragments, want 10", len(got))
	}
	for i, f := range got {
		if f.Seq != uint64(i+1) {
			t.Fatalf("replay item %d has seq %d, want %d", i, f.Seq, i+1)
		}
	}
	if st := s.Stats(); st.Bootstraps != 1 || st.StorageErrors != 0 {
		t.Fatalf("bootstraps=%d storageErrors=%d, want 1/0", st.Bootstraps, st.StorageErrors)
	}

	// a resume inside the window must not touch the log
	sub2 := s.SubscribeFrom(32, 8)
	defer sub2.Cancel()
	if got := drain(sub2); len(got) != 2 {
		t.Fatalf("in-window replay delivered %d, want 2", len(got))
	}
	if st := s.Stats(); st.Bootstraps != 1 {
		t.Fatalf("in-window resume counted as bootstrap: %d", st.Bootstraps)
	}
}

// TestRecoverServerResumesSequence restarts the server from its durable
// log: sequence numbers continue monotonically, the replay window is
// rebuilt, and write-through keeps persisting.
func TestRecoverServerResumesSequence(t *testing.T) {
	dir := t.TempDir()
	seg, _, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer("sensors", sensorStructure(t))
	s.AttachDurable(seg)
	s.Publish(rootFragment())
	for i := 1; i <= 5; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	s.Sync()
	wm := s.Stats().Watermark
	s.Close()
	seg.Close()

	seg2, rep, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	if rep.Degraded != "" {
		t.Fatalf("clean restart degraded: %s", rep.Degraded)
	}
	s2, err := RecoverServer("sensors", sensorStructure(t), seg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LatestSeq(); got != 6 {
		t.Fatalf("recovered LatestSeq = %d, want 6", got)
	}
	if got := len(s2.History()); got != 6 {
		t.Fatalf("recovered window holds %d, want 6", got)
	}
	if got := s2.Stats().Watermark; !got.Equal(wm) {
		t.Fatalf("recovered watermark %v, want %v", got, wm)
	}
	// the next publish continues the sequence and is persisted
	s2.Publish(eventFragment(6, "2003-01-03T00:00:00", "v"))
	s2.Sync()
	if got := s2.LatestSeq(); got != 7 {
		t.Fatalf("post-recovery publish got seq %d, want 7", got)
	}
	frames, err := seg2.ReadSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 7 {
		t.Fatalf("durable log holds %d frames after recovery+publish, want 7", len(frames))
	}
}

// flakyLog is a DurableLog that fails every Append once armed.
type flakyLog struct {
	fail   bool
	frames []*fragment.Fragment
}

func (l *flakyLog) Append(f *fragment.Fragment) error {
	if l.fail {
		return errors.New("disk full")
	}
	l.frames = append(l.frames, f)
	return nil
}

func (l *flakyLog) ReadSince(after uint64) ([]*fragment.Fragment, error) {
	var out []*fragment.Fragment
	for _, f := range l.frames {
		if f.Seq > after {
			out = append(out, f)
		}
	}
	return out, nil
}

func (l *flakyLog) SeqCoverage() (uint64, uint64, bool) {
	if len(l.frames) == 0 {
		return 0, 0, true
	}
	return l.frames[0].Seq, l.frames[len(l.frames)-1].Seq, true
}

// TestBridgeRequiresJoinUpWithWindow pins the in-process bridge's
// join-up rule: a durable log whose coverage stops short of the
// retained window must not bridge at all — the replay would carry a
// silent hole between the log's last frame and the window — mirroring
// the advertised resume floor.
func TestBridgeRequiresJoinUpWithWindow(t *testing.T) {
	log := &flakyLog{}
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.AttachDurable(log)
	s.Publish(rootFragment())
	for i := 1; i <= 9; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	s.Sync()
	s.SetHistoryLimit(2)        // window holds seqs [9,10]
	log.frames = log.frames[:3] // durable coverage [1,3]: hole 4..8

	// the floor must not promise the unreachable durable range
	if got := s.Stats().ResumeFloor; got != 8 {
		t.Fatalf("ResumeFloor = %d, want 8 (window only)", got)
	}
	sub := s.SubscribeFrom(32, 0)
	defer sub.Cancel()
	got := drain(sub)
	if len(got) != 2 || got[0].Seq != 9 {
		seqs := make([]uint64, len(got))
		for i, f := range got {
			seqs[i] = f.Seq
		}
		t.Fatalf("replay bridged across a hole: got seqs %v, want [9 10]", seqs)
	}
	if st := s.Stats(); st.Bootstraps != 0 {
		t.Fatalf("holed bridge counted as bootstrap: %d", st.Bootstraps)
	}
}

// blockingLog stalls Append until released, exposing what Publish holds
// locked across the durable write.
type blockingLog struct {
	started chan struct{}
	release chan struct{}
}

func (l *blockingLog) Append(*fragment.Fragment) error {
	close(l.started)
	<-l.release
	return nil
}
func (l *blockingLog) ReadSince(uint64) ([]*fragment.Fragment, error) { return nil, nil }
func (l *blockingLog) SeqCoverage() (uint64, uint64, bool)            { return 0, 0, true }

// TestPublishDoesNotHoldStateLockDuringDurableAppend pins that a slow
// durable fsync stalls only other publishers, never subscribers or
// Stats: the state lock is released around the write-through.
func TestPublishDoesNotHoldStateLockDuringDurableAppend(t *testing.T) {
	log := &blockingLog{started: make(chan struct{}), release: make(chan struct{})}
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.AttachDurable(log)

	done := make(chan struct{})
	go func() {
		s.Publish(rootFragment())
		close(done)
	}()
	<-log.started // the durable append is now in flight

	statsDone := make(chan ServerStats, 1)
	go func() { statsDone <- s.Stats() }()
	var blocked bool
	select {
	case <-statsDone:
		// Stats returned while the disk was "syncing" — the lock is free
	case <-time.After(2 * time.Second):
		blocked = true
	}
	// release before failing so a lock-holding Publish cannot deadlock
	// the test's own cleanup
	close(log.release)
	<-done
	if blocked {
		t.Fatal("Stats blocked behind an in-flight durable append")
	}
	s.Sync()
	if got := s.LatestSeq(); got != 1 {
		t.Fatalf("publish did not complete after release: seq %d", got)
	}
}

// TestDurableWriteThroughFailure pins the failure policy: the first
// append error marks the log broken (sticky, counted, floor retreats to
// the in-memory window) but delivery keeps flowing.
func TestDurableWriteThroughFailure(t *testing.T) {
	log := &flakyLog{fail: true}
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.AttachDurable(log)
	sub := s.Subscribe(16, false)
	defer sub.Cancel()

	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "v"))
	s.Publish(eventFragment(2, "2003-01-02T00:00:00", "v"))
	s.Sync()

	if st := s.Stats(); st.StorageErrors != 1 {
		t.Fatalf("StorageErrors = %d, want 1 (the failure is sticky, not repeated)", st.StorageErrors)
	}
	// a full window's floor is genesis either way: a trimmed one tells
	s.SetHistoryLimit(1)
	if got := s.Stats().ResumeFloor; got != 2 {
		t.Fatalf("broken log still lowers the floor: %d, want 2", got)
	}
	if got := len(drain(sub)); got != 3 {
		t.Fatalf("delivery stalled on a broken log: got %d fragments, want 3", got)
	}

	// re-attaching a healthy log clears the broken state
	s.AttachDurable(&flakyLog{})
	s.Publish(eventFragment(3, "2003-01-03T00:00:00", "v"))
	s.Sync()
	if st := s.Stats(); st.StorageErrors != 1 {
		t.Fatalf("healthy re-attach kept failing: %d", st.StorageErrors)
	}
}

// TestSnapshotBootstrapBeyondReplayWindow is the acceptance test for the
// durable bootstrap: a reconnecting client whose gap exceeds the
// server's replay window used to be forced into an unrecoverable gap
// (TestResumeWindowSlid); with a durable log attached it must instead
// bootstrap the missing prefix from the log, converge to the
// byte-identical standing query result, and never trip the continuous
// query's Invalidate.
func TestSnapshotBootstrapBeyondReplayWindow(t *testing.T) {
	const events = 26
	traffic := chaosTraffic(events)

	// baseline: the standing result over a perfect transport
	baseline := NewClient("sensors", sensorStructure(t))
	for _, f := range traffic {
		baseline.Apply(f)
	}
	want := evalOver(t, baseline.Store())
	if len(want) == 0 {
		t.Fatal("baseline query selected nothing; the comparison would be vacuous")
	}

	seg := openSegT(t)
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.SetHistoryLimit(4)
	s.AttachDurable(seg)
	// the 7th frame dies mid-frame, cutting the client off while the
	// remaining traffic floods past the 4-slot window
	fi := NewFaultInjector(FaultPlan{Seed: 7, ResetEvery: 7})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi})

	for _, f := range traffic[:6] {
		s.Publish(f)
	}
	opts := DialOptions{
		Reconnect:      true,
		InitialBackoff: 150 * time.Millisecond,
		MaxBackoff:     time.Second,
		Rand:           rand.New(rand.NewSource(7)),
	}
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// even the fresh join is a bootstrap: the window holds seqs 3..6 but
	// the durable floor reaches genesis, so the client gets all 6
	if !waitFor(t, 2*time.Second, func() bool { return c.Store().Len() == 6 }) {
		t.Fatalf("initial bootstrap incomplete: %d of 6 (stats %+v)", c.Store().Len(), c.Stats())
	}

	var mu sync.Mutex
	invalidated := 0
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	r, _ := standing(t, rt.MustCompile(chaosQuery, xcql.QaCPlus), ts("2003-06-01T00:00:00"), registry.Options{OnResult: func(res registry.Result) {
		mu.Lock()
		if res.Degraded != "" {
			invalidated++
		}
		mu.Unlock()
	}})
	c.AttachRegistry(r)

	// frame 7 resets the connection mid-frame; the rest of the traffic
	// slides the window far past the client's position while it backs off
	for _, f := range traffic[6:] {
		s.Publish(f)
	}

	if !waitFor(t, 15*time.Second, func() bool {
		st := c.Stats()
		return c.Store().Len() == len(traffic) && st.Missing == 0 && st.ReconnectSnapshot >= 1
	}) {
		t.Fatalf("never converged via bootstrap: store %d/%d, stats %+v",
			c.Store().Len(), len(traffic), c.Stats())
	}

	st := c.Stats()
	if st.Lost != 0 {
		t.Fatalf("bootstrap wrote fragments off as lost: %+v", st)
	}
	if st.ReconnectDegraded != 0 {
		t.Fatalf("reconnect classified degraded despite durable coverage: %+v", st)
	}
	if reason, degraded := c.Degraded(); degraded {
		t.Fatalf("client degraded despite durable coverage: %s", reason)
	}
	if st.Gaps != 0 {
		t.Fatalf("bootstrapped replay produced sequence gaps: %+v (gaps %v)", st, c.Gaps())
	}
	mu.Lock()
	inv := invalidated
	mu.Unlock()
	if inv != 0 {
		t.Fatalf("continuous query was invalidated %d times; bootstrap must not trip Invalidate", inv)
	}

	// the standing result is byte-identical to the fault-free baseline
	got := evalOver(t, c.Store())
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("bootstrapped result diverged:\n got %v\nwant %v", got, want)
	}

	ss := s.Stats()
	if ss.Bootstraps < 1 {
		t.Fatalf("server never bridged from the durable log: %+v", ss)
	}
	if ss.StorageErrors != 0 {
		t.Fatalf("durable log reported errors: %+v", ss)
	}
	t.Logf("bootstrap converged: client %+v, server bootstraps=%d floor=%d",
		st, ss.Bootstraps, ss.ResumeFloor)
}

// TestReconnectOutcomeMetrics exposes the reconnect_outcome family.
func TestReconnectOutcomeMetrics(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	defer c.Close()
	c.noteReconnectOutcome(outcomeReplay)
	c.noteReconnectOutcome(outcomeSnapshot)
	c.noteReconnectOutcome(outcomeSnapshot)
	c.noteReconnectOutcome(outcomeDegraded)
	st := c.Stats()
	if st.ReconnectReplay != 1 || st.ReconnectSnapshot != 2 || st.ReconnectDegraded != 1 {
		t.Fatalf("outcome counters %+v", st)
	}
	r := obs.NewRegistry()
	c.RegisterMetrics(r, "client")
	got := map[string]int64{}
	r.Each(func(name string, value int64) { got[name] = value })
	for name, want := range map[string]int64{
		"client_reconnect_outcome_replay":             1,
		"client_reconnect_outcome_snapshot_bootstrap": 2,
		"client_reconnect_outcome_degraded":           1,
	} {
		if got[name] != want {
			t.Fatalf("%s = %d, want %d (registry %v)", name, got[name], want, got)
		}
	}
}

// gateLog is a segment store whose batch append waits at a gate: each
// AppendBatch reports its batch's size on entered, then waits for one
// token on release before it writes. The test's cleanup opens the gate
// for good, so a failing test cannot leave the committer stuck.
type gateLog struct {
	*segstore.Store
	entered chan int
	release chan struct{}
}

// gatedServer is a server whose durable log is a gateLog, closed at the
// test's end.
func gatedServer(t *testing.T) (*Server, *gateLog) {
	t.Helper()
	g := &gateLog{Store: openSegT(t), entered: make(chan int, 8), release: make(chan struct{})}
	s := NewServer("sensors", sensorStructure(t))
	s.AttachDurable(g)
	t.Cleanup(s.Close)
	t.Cleanup(func() { close(g.release) })
	return s, g
}

func (g *gateLog) AppendBatch(fs []*fragment.Fragment) error {
	g.entered <- len(fs)
	<-g.release
	return g.Store.AppendBatch(fs)
}

// seqsOf lists the sequence numbers of fs.
func seqsOf(fs []*fragment.Fragment) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = f.Seq
	}
	return out
}

// TestQueuedFramesWaitForTheLog: a fragment a durable server has queued
// reaches no subscriber — in-process or over TCP — before its log has
// written it through; the ten fragments queued behind a batch stuck in
// its write go to the log as one batch, one fsync, and are delivered in
// sequence order.
func TestQueuedFramesWaitForTheLog(t *testing.T) {
	s, g := gatedServer(t)
	inproc := s.Subscribe(32, false)
	c, err := Dial(startFaultyServer(t, s, ServeOptions{}), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	var overTCP []uint64
	c.OnFragment(func(f *fragment.Fragment) {
		mu.Lock()
		overTCP = append(overTCP, f.Seq)
		mu.Unlock()
	})
	if !waitFor(t, 2*time.Second, func() bool { return s.Stats().Subscribers == 2 }) {
		t.Fatalf("%d subscribers, want 2", s.Stats().Subscribers)
	}

	s.Publish(rootFragment())
	if n := <-g.entered; n != 1 {
		t.Fatalf("first batch of %d, want 1", n)
	}
	for i := 1; i <= 10; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	// eleven published, none written through: nothing has left the server
	st := s.Stats()
	if st.LatestSeq != 0 || st.Retained != 0 || st.MaxQueueDepth != 0 || len(inproc.C()) != 0 || c.LastSeq() != 0 {
		t.Fatalf("a queued fragment was delivered before its write-through: stats %+v, in-process %d, TCP last seq %d",
			st, len(inproc.C()), c.LastSeq())
	}

	g.release <- struct{}{} // the first batch commits
	if n := <-g.entered; n != 10 {
		t.Fatalf("the ten queued fragments went to the log in a batch of %d", n)
	}
	if got := seqsOf(drain(inproc)); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("before the second batch's write-through the in-process subscriber got %v, want [1]", got)
	}
	before := g.Stats().Fsyncs
	g.release <- struct{}{}
	s.Sync()
	if got := g.Stats().Fsyncs - before; got != 1 {
		t.Fatalf("a batch of ten took %d fsyncs, want 1", got)
	}
	want := []uint64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if got := seqsOf(drain(inproc)); !slices.Equal(got, want) {
		t.Fatalf("in-process delivery %v, want %v", got, want)
	}
	if !waitFor(t, 2*time.Second, func() bool { return c.LastSeq() == 11 }) {
		t.Fatalf("the TCP client reached seq %d of 11", c.LastSeq())
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(overTCP, append([]uint64{1}, want...)) || c.Stats().Gaps != 0 {
		t.Fatalf("TCP delivery %v (gaps %v)", overTCP, c.Gaps())
	}
}

// TestCloseDrainsTheCommitQueue: Close on a durable server with
// fragments still queued writes them through and delivers them, in
// order, before it closes the subscriptions, and returns only then.
func TestCloseDrainsTheCommitQueue(t *testing.T) {
	s, g := gatedServer(t)
	sub := s.Subscribe(32, false)
	s.Publish(rootFragment())
	<-g.entered
	for i := 1; i <= 5; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	g.release <- struct{}{}
	if n := <-g.entered; n != 5 {
		t.Fatalf("the queued fragments went to the log in a batch of %d, want 5", n)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a batch still unwritten")
	default:
	}
	g.release <- struct{}{}
	<-closed
	var got []uint64
	for f := range sub.C() { // closed once everything queued is delivered
		got = append(got, f.Seq)
	}
	if want := []uint64{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v before the close, want %v", got, want)
	}
	frames, err := g.ReadSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := seqsOf(frames); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("the log holds %v", got)
	}
	s.Publish(eventFragment(6, "2003-01-02T00:00:00", "v"))
	if st := s.Stats(); st.LatestSeq != 6 {
		t.Fatalf("a publish after Close was taken: %+v", st)
	}
}

// TestReconnectWhileFirstBatchIsQueued: a client that registers, and
// re-registers, while the server's replay window is still empty and its
// first fragments wait for the log is told the stream starts at seq 0 —
// the handshake names what was delivered, not what was queued — so it
// writes nothing off as lost or already seen, and gets every fragment.
func TestReconnectWhileFirstBatchIsQueued(t *testing.T) {
	s, g := gatedServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := &connTracker{Listener: ln}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = ServeTCP(s, conns) }()

	s.Publish(rootFragment())
	<-g.entered
	for i := 1; i <= 3; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	cc, hs, err := dialHandshake(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cc.conn.Close()
	if hs.latest != 0 || hs.oldest != 0 || hs.floor != 0 {
		t.Fatalf("handshake with four fragments queued: latest=%d oldest=%d floor=%d, want 0 0 0", hs.latest, hs.oldest, hs.floor)
	}

	c, err := Dial(ln.Addr().String(), testDialOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// cut the client's connection while everything is still queued: it
	// re-registers before the first delivery
	if !waitFor(t, 2*time.Second, func() bool { return conns.count() == 2 }) {
		t.Fatal("the client's connection was never accepted")
	}
	conns.closeLast()
	if !waitFor(t, 2*time.Second, func() bool { return c.Stats().Reconnects >= 1 && s.Stats().Subscribers >= 1 }) {
		t.Fatalf("the client never re-registered: %+v", c.Stats())
	}
	if st := s.Stats(); st.Retained != 0 {
		t.Fatalf("the reconnect was not made while the first batch was queued: %+v", st)
	}

	g.release <- struct{}{}
	<-g.entered
	g.release <- struct{}{}
	if !waitFor(t, 2*time.Second, func() bool { return c.LastSeq() == 4 }) {
		t.Fatalf("the client reached seq %d of 4: %+v", c.LastSeq(), c.Stats())
	}
	st := c.Stats()
	if reason, degraded := c.Degraded(); degraded || st.Lost != 0 || st.Gaps != 0 || st.ReconnectDegraded != 0 || c.Store().Len() != 4 {
		t.Fatalf("client %+v, store %d, gaps %v, degraded %q", st, c.Store().Len(), c.Gaps(), reason)
	}
}

// connTracker is a listener that remembers the connections it accepted.
type connTracker struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *connTracker) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, conn)
		l.mu.Unlock()
	}
	return conn, err
}

func (l *connTracker) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

func (l *connTracker) closeLast() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conns[len(l.conns)-1].Close()
}
