package stream

import (
	"sync"
	"sync/atomic"
	"testing"

	"xcql/internal/fragment"
)

// TestOnFragmentBesideApply: listeners registered while fragments are
// applied are each called for every later fragment, and registering never
// races the fan-out (run with -race).
func TestOnFragmentBesideApply(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	const listeners = 50
	var calls atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range listeners {
			c.OnFragment(func(*fragment.Fragment) { calls.Add(1) })
		}
	}()
	c.Apply(rootFragment())
	for i := 1; i <= 200; i++ {
		c.Apply(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	wg.Wait()
	before := calls.Load()
	c.Apply(eventFragment(201, "2003-01-02T00:00:00", "v"))
	if got := calls.Load() - before; got != listeners {
		t.Fatalf("one fragment reached %d listeners, want %d", got, listeners)
	}
}
