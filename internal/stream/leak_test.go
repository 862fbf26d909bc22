package stream

import (
	"net"
	"runtime"
	"testing"
	"time"

	"xcql/internal/registry"
	"xcql/internal/segstore"
	"xcql/internal/xcql"
)

// assertNoGoroutineLeak polls until the goroutine count returns to the
// baseline (plus a small tolerance for runtime housekeeping) and dumps
// stacks on failure so the leaked goroutine is identifiable.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		runtime.GC() // nudge finalizer-held goroutines along
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf)
}

// After Close of both ends under fault injection — drops, duplicates,
// reorders and connection resets all active — every transport, reader
// and reconnect goroutine must exit. The subscription machinery may not
// leave anything behind.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := NewServer("sensors", sensorStructure(t))
	// Manage the listener by hand (not t.Cleanup) so it is fully closed
	// before the leak assertion runs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFaultInjector(FaultPlan{Seed: 42, DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.2, ResetEvery: 9})
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = ServeTCPOptions(s, ln, ServeOptions{Faults: fi})
	}()

	s.Publish(rootFragment())
	for i := 1; i <= 25; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}

	c, err := Dial(ln.Addr().String(), testDialOptions(42))
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}

	// Ride a standing query on the stream so its evaluation path is
	// part of what must wind down cleanly.
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	r, _ := standing(t, rt.MustCompile(`count(stream("sensors")//event)`, xcql.QaCPlus), ts("2003-06-01T00:00:00"), registry.Options{
		Limits:   xcql.Limits{MaxSteps: 100000, Timeout: time.Second},
		OnResult: func(registry.Result) {},
	})
	c.AttachRegistry(r)

	waitFor(t, 2*time.Second, func() bool { return c.Store().Len() > 1 })

	// Teardown in dependency order, waiting for the acceptor to return.
	c.Close()
	s.Close()
	ln.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("ServeTCPOptions did not return after listener close")
	}

	assertNoGoroutineLeak(t, baseline)
}

// Repeated dial/close cycles against a resetting server must not
// accumulate goroutines: reconnect loops die with their client.
func TestNoGoroutineLeakAcrossReconnectCycles(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := NewServer("sensors", sensorStructure(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFaultInjector(FaultPlan{Seed: 7, ResetEvery: 5})
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = ServeTCPOptions(s, ln, ServeOptions{Faults: fi})
	}()
	s.Publish(rootFragment())
	for i := 1; i <= 10; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}

	for cycle := 0; cycle < 5; cycle++ {
		c, err := Dial(ln.Addr().String(), testDialOptions(int64(cycle)))
		if err != nil {
			ln.Close()
			t.Fatal(err)
		}
		waitFor(t, time.Second, func() bool { return c.Store().Len() > 0 })
		c.Close()
	}

	s.Close()
	ln.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("ServeTCPOptions did not return after listener close")
	}

	assertNoGoroutineLeak(t, baseline)
}

// A durable server's committer exits with Close, which writes through
// whatever is still queued and then joins it.
func TestNoGoroutineLeakFromCommitter(t *testing.T) {
	baseline := runtime.NumGoroutine()

	seg, _, err := segstore.Open(t.TempDir(), segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for round := 0; round < 3; round++ {
		s := NewServer("sensors", sensorStructure(t))
		s.AttachDurable(seg)
		s.Publish(rootFragment())
		for i := 1; i <= 20; i++ {
			s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
		}
		s.Close()
	}
	if got := seg.Stats().Appends; got != 3*21 {
		t.Fatalf("the log took %d appends, want %d", got, 3*21)
	}

	assertNoGoroutineLeak(t, baseline)
}
