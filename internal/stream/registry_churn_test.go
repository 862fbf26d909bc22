package stream

// Churn/soak: a standing-query registry fed by a client must survive
// concurrent register/unregister/resubscribe while fragments arrive over
// a faulty wire. Pinned here: no goroutine leaks after everything closes
// and no deliveries to a registration after its Close returns (no
// cross-subscriber bleed).

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/registry"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
)

func TestRegistryChurnUnderFire(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const (
		events  = 300
		workers = 6
		seed    = 7
	)

	// publish fire over a deliberately faulty wire: drops, dups,
	// reorders and mid-frame resets, all from a seeded plan
	srv := NewServer("sensors", sensorStructure(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(FaultPlan{
		Seed:        seed,
		DropProb:    0.10,
		DupProb:     0.05,
		ReorderProb: 0.05,
		ResetEvery:  13,
	})
	go func() { _ = ServeTCPOptions(srv, ln, ServeOptions{Faults: inj}) }()
	client, err := Dial(ln.Addr().String(), DialOptions{
		Reconnect:      true,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		Rand:           rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := registry.New(nil)
	client.AttachRegistry(reg)

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", client.Store())
	queries := []string{
		`for $e in stream("sensors")//event return $e`,
		`count(stream("sensors")//event)`,
		`for $e in stream("sensors")//event where $e/value > 100 return $e`,
	}

	// churn workers: register, soak a few deliveries, close, resubscribe
	var wg sync.WaitGroup
	stop := make(chan struct{})
	bleeds := make([]int64, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed + w)))
			for cycle := 0; ; cycle++ {
				select {
				case <-stop:
					return
				default:
				}
				q, err := rt.Compile(queries[(w+cycle)%len(queries)], xcql.QaCPlus)
				if err != nil {
					t.Errorf("worker %d: compile: %v", w, err)
					return
				}
				var closed atomic.Bool
				r, err := reg.Register(q, registry.Options{
					OnResult: func(registry.Result) {
						if closed.Load() {
							atomic.AddInt64(&bleeds[w], 1)
						}
					},
				})
				if err != nil {
					t.Errorf("worker %d: register: %v", w, err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
				r.Close()
				// Close can race at most the Apply pass whose member
				// snapshot predates it; Evaluate serializes on the same
				// evaluation lock, so once it returns any such pass has
				// drained and every later delivery is a bleed
				reg.Evaluate()
				closed.Store(true)
			}
		}()
	}

	// the publisher: root snapshot announcing holes, then event fillers
	var holes string
	base := time.Date(2003, time.June, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < events; i++ {
		fid := 100 + i
		holes += fmt.Sprintf(`<hole id="%d" tsid="2"/>`, fid)
		srv.Publish(fragment.New(0, 1, base.Add(time.Duration(i)*time.Second),
			xmldom.MustParseString(`<sensors>`+holes+`</sensors>`).Root()))
		srv.Publish(fragment.New(fid, 2, base.Add(time.Duration(i)*time.Second),
			xmldom.MustParseString(fmt.Sprintf(`<event><value>%d</value></event>`, i)).Root()))
		if i%16 == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	close(stop)
	wg.Wait()
	for w, n := range bleeds {
		if n > 0 {
			t.Errorf("worker %d: %d deliveries after Close returned (cross-subscriber bleed)", w, n)
		}
	}
	if got := reg.Stats().Registrations; got != 0 {
		t.Errorf("registrations still live after churn: %d", got)
	}
	if got := len(reg.Groups()); got != 0 {
		t.Errorf("groups still live after churn: %d", got)
	}

	srv.Close()
	client.Close()
	ln.Close()
	assertNoGoroutineLeak(t, baseline)
}
