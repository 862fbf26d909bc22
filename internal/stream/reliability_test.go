package stream

import (
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/registry"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

func TestPublishStampsSequence(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "a"))
	s.Publish(eventFragment(2, "2003-01-03T00:00:00", "b"))
	hist := s.History()
	for i, f := range hist {
		if f.Seq != uint64(i+1) {
			t.Fatalf("history[%d].Seq = %d, want %d", i, f.Seq, i+1)
		}
	}
	if st := s.Stats(); st.LatestSeq != 3 || st.OldestRetained != 1 {
		t.Fatalf("latest = %d oldest = %d", st.LatestSeq, st.OldestRetained)
	}
	// the caller's fragment is not mutated by stamping
	f := eventFragment(3, "2003-01-04T00:00:00", "c")
	s.Publish(f)
	if f.Seq != 0 {
		t.Fatal("Publish must stamp a copy, not the caller's fragment")
	}
}

func TestSequenceSurvivesWire(t *testing.T) {
	f := eventFragment(7, "2003-01-02T00:00:00", "41").WithSeq(99)
	rt, err := fragment.Parse(f.String())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Seq != 99 {
		t.Fatalf("seq after round-trip = %d", rt.Seq)
	}
	// unsequenced fragments stay seq-free on the wire
	g := eventFragment(8, "2003-01-02T00:00:00", "42")
	if strings.Contains(g.String(), "seq=") {
		t.Fatalf("unsequenced wire form carries seq: %s", g)
	}
}

func TestHistoryLimitBoundsReplay(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.SetHistoryLimit(2)
	for i := 1; i <= 5; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "x"))
	}
	if got := len(s.History()); got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
	if got := s.Stats().OldestRetained; got != 4 {
		t.Fatalf("oldest retained = %d, want 4", got)
	}
	sub := s.SubscribeFrom(16, 0)
	defer sub.Cancel()
	var seqs []uint64
	for len(seqs) < 2 {
		f := <-sub.C()
		seqs = append(seqs, f.Seq)
	}
	if seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("replayed seqs = %v", seqs)
	}
}

// A full bounded window trims in place: once it is full a publish costs
// no more allocations than an unbounded one, and History still returns
// the last n fragments in order.
func TestBoundedHistoryTrimsInPlace(t *testing.T) {
	publishAllocs := func(limit int) float64 {
		s := NewServer("sensors", sensorStructure(t))
		defer s.Close()
		s.SetHistoryLimit(limit)
		f := eventFragment(1, "2003-01-02T00:00:00", "x")
		for i := 0; i < 512; i++ {
			s.Publish(f)
		}
		allocs := testing.AllocsPerRun(100, func() { s.Publish(f) })
		if limit > 0 {
			hist := s.History()
			if len(hist) != limit {
				t.Fatalf("retained %d, want %d", len(hist), limit)
			}
			first := s.Stats().LatestSeq - uint64(limit) + 1
			for i, f := range hist {
				if f.Seq != first+uint64(i) {
					t.Fatalf("history[%d].Seq = %d, want %d", i, f.Seq, first+uint64(i))
				}
			}
		}
		return allocs
	}
	if unbounded, bounded := publishAllocs(0), publishAllocs(256); bounded > unbounded {
		t.Fatalf("a publish into a full window allocates %v times, unbounded %v", bounded, unbounded)
	}
}

func TestSubscribeFromReplaysSuffix(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	for i := 1; i <= 5; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "x"))
	}
	sub := s.SubscribeFrom(16, 3)
	defer sub.Cancel()
	if f := <-sub.C(); f.Seq != 4 {
		t.Fatalf("first replayed seq = %d, want 4", f.Seq)
	}
	if f := <-sub.C(); f.Seq != 5 {
		t.Fatal("second replayed seq wrong")
	}
}

// A full buffer drops a delivery for that subscription alone: the server
// counts the drop, and the sequence numbers show it to the client that
// consumes the subscription as a gap.
func TestPerSubscriptionDropRecords(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	sub := s.Subscribe(1, false)
	defer sub.Cancel()
	unobstructed := s.Subscribe(16, false)
	defer unobstructed.Cancel()
	for i := 0; i < 5; i++ {
		s.Publish(eventFragment(i+1, "2003-01-02T00:00:00", "x"))
	}
	// buffer of 1: the first delivery fits, the next four are dropped
	if got := s.Stats().Dropped; got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}
	if got := len(unobstructed.C()); got != 5 {
		t.Fatalf("unobstructed subscription holds %d, want 5", got)
	}
	c := NewClient("sensors", sensorStructure(t))
	defer c.Close()
	c.Apply(<-sub.C())
	s.Publish(eventFragment(6, "2003-01-02T00:00:00", "x"))
	c.Apply(<-sub.C())
	if gaps := c.Gaps(); len(gaps) != 1 || gaps[0].From != 2 || gaps[0].To != 5 {
		t.Fatalf("client gaps = %v, want [2,5]", gaps)
	}
}

func TestClientGapDetectHealAndDuplicate(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	var gaps []Gap
	c.OnGap(func(g Gap) { gaps = append(gaps, g) })

	c.Apply(rootFragment().WithSeq(1))
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "a").WithSeq(2))
	// seq 3 lost in transit, 4 arrives
	c.Apply(eventFragment(3, "2003-01-04T00:00:00", "c").WithSeq(4))
	if len(gaps) != 1 || gaps[0].From != 3 || gaps[0].To != 3 {
		t.Fatalf("gaps = %v", gaps)
	}
	if reason, ok := c.Degraded(); !ok || !strings.Contains(reason, "missing") {
		t.Fatalf("degraded = %q, %v", reason, ok)
	}
	// the missing fragment arrives late (reorder / replay) and heals
	c.Apply(eventFragment(2, "2003-01-03T00:00:00", "b").WithSeq(3))
	if _, ok := c.Degraded(); ok {
		t.Fatal("healed client still degraded")
	}
	// the same seq again is a duplicate and is not re-applied
	before := c.Store().Len()
	c.Apply(eventFragment(2, "2003-01-03T00:00:00", "b").WithSeq(3))
	st := c.Stats()
	if st.Duplicates != 1 || c.Store().Len() != before {
		t.Fatalf("duplicates = %d store = %d", st.Duplicates, c.Store().Len())
	}
	if st.Replayed != 1 || st.Missing != 0 || st.Lost != 0 || st.LastSeq != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientUnrecoverableGap(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	c.Apply(rootFragment().WithSeq(1))
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "a").WithSeq(2))
	// gap [3,4] pending, then the server reports its window starts at 6
	c.Apply(eventFragment(4, "2003-01-05T00:00:00", "d").WithSeq(5))
	c.reportUnrecoverable(Gap{From: 3, To: 5, Reason: "unrecoverable: server replay window starts at seq 6"})
	st := c.Stats()
	// 3 and 4 were outstanding, 5 was already received: 2 lost
	if st.Lost != 2 || st.Missing != 0 {
		t.Fatalf("lost = %d missing = %d", st.Lost, st.Missing)
	}
	reason, ok := c.Degraded()
	if !ok || !strings.Contains(reason, "unrecoverable") {
		t.Fatalf("degraded = %q", reason)
	}
	// loss is permanent: nothing can heal it
	c.Apply(eventFragment(9, "2003-01-06T00:00:00", "e").WithSeq(6))
	if _, still := c.Degraded(); !still {
		t.Fatal("permanent loss must stay degraded")
	}
}

func TestClientResumePosition(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	c.Apply(rootFragment().WithSeq(1))
	if c.resumePos() != 1 {
		t.Fatalf("resumePos = %d", c.resumePos())
	}
	c.Apply(eventFragment(3, "2003-01-04T00:00:00", "c").WithSeq(4)) // gap [2,3]
	if c.resumePos() != 1 {
		t.Fatalf("resumePos with pending gap = %d, want 1", c.resumePos())
	}
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "a").WithSeq(2))
	if c.resumePos() != 2 {
		t.Fatalf("resumePos after partial heal = %d, want 2", c.resumePos())
	}
	c.Apply(eventFragment(2, "2003-01-03T00:00:00", "b").WithSeq(3))
	if c.resumePos() != 4 {
		t.Fatalf("resumePos after full heal = %d, want 4", c.resumePos())
	}
}

func TestServerStatsSnapshot(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	sub := s.Subscribe(1, false)
	defer sub.Cancel()
	for i := 0; i < 3; i++ {
		s.Publish(eventFragment(i+1, "2003-01-02T00:00:00", "x"))
	}
	st := s.Stats()
	if st.LatestSeq != 3 || st.Dropped != 2 || st.Subscribers != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.OldestRetained != 1 || st.LatestSeq != 3 || st.Retained != 3 {
		t.Fatalf("window = %+v", st)
	}
}

func TestContinuousQueryInvalidatedOnGap(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event where $e/value > 40 return $e/value`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []registry.Result
	r, reg := standing(t, q, ts("2003-06-01T00:00:00"), registry.Options{OnResult: func(res registry.Result) {
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
	}})
	c.AttachRegistry(r)

	c.Apply(rootFragment().WithSeq(1))
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "41").WithSeq(2))
	// seq 3 is lost; 4 arrives and invalidates the query
	c.Apply(eventFragment(3, "2003-01-04T00:00:00", "55").WithSeq(4))

	mu.Lock()
	if len(results) != 3 {
		t.Fatalf("evaluations = %d", len(results))
	}
	if results[1].Degraded != "" {
		t.Fatal("pre-gap result marked degraded")
	}
	last := results[2]
	if last.Degraded == "" {
		t.Fatal("post-gap result not marked degraded")
	}
	// invalidation reset the delta state: everything visible re-emits
	if strings.Join(xq.Strings(last.Delta), ",") != "41,55" {
		t.Fatalf("post-gap delta = %v", last.Delta)
	}
	mu.Unlock()
	// consumers can re-arm after handling the degradation
	reg.ClearDegraded()
	r.Evaluate()
	mu.Lock()
	defer mu.Unlock()
	got := results[len(results)-1]
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Degraded != "" {
		t.Fatal("ClearDegraded did not clear")
	}
}

// TestCancelCloseRace hammers Subscribe/Cancel/Publish/Close from many
// goroutines; run with -race. A subscription channel must never be
// closed while a publish is sending on it.
func TestCancelCloseRace(t *testing.T) {
	for round := 0; round < 10; round++ {
		s := NewServer("sensors", sensorStructure(t))
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Publish(eventFragment(i+1, "2003-01-02T00:00:00", "x"))
			}
		}()
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					sub := s.Subscribe(2, i%2 == 0)
					// drain a little, cancel concurrently with publishes
					select {
					case <-sub.C():
					default:
					}
					sub.Cancel()
					sub.Cancel() // idempotent under race too
				}
			}()
		}
		// close only after the publisher demonstrably made progress —
		// condition-based instead of a wall-clock sleep, so the race
		// window exists on slow machines too
		waitFor(t, 10*time.Second, func() bool { return s.LatestSeq() >= 64 })
		s.Close()
		close(stop)
		wg.Wait()
		// the publisher kept running against a closed server: no panic,
		// and post-close publishes were ignored
		if got := s.Stats().Subscribers; got != 0 {
			t.Fatalf("round %d: %d subscribers survived Close", round, got)
		}
	}
}

// TestConsumeDetectsBrokerDrops: a slow in-process subscriber overflows
// its buffer; the seq numbers turn the silent drop into a visible gap.
func TestConsumeDetectsBrokerDrops(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()
	sub := s.Subscribe(1, false)
	for i := 0; i < 5; i++ {
		s.Publish(eventFragment(i+1, "2003-01-02T00:00:00", "x"))
	}
	// only seq 1 fit the buffer; 2..5 were dropped for this subscription
	s.Close()
	c.Consume(sub)
	if got := s.Stats().Dropped; got != 4 {
		t.Fatalf("drops = %d, want 4", got)
	}
	// the client saw seq 1 only — no later frame, so the gap is not yet
	// visible; a fresh catch-up subscription (the in-process analogue of
	// a resume) heals the loss
	heal := s.SubscribeFrom(16, c.resumePos())
	c.Consume(heal)
	if c.Store().Len() != 5 {
		t.Fatalf("store after heal = %d", c.Store().Len())
	}
	if st := c.Stats(); st.Missing != 0 || st.Lost != 0 {
		t.Fatalf("stats after heal = %+v", st)
	}
}
