package xcql_test

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"xcql"
)

const traceSmokeStructure = `<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="customer"/>
    <tag type="event" id="5" name="transaction">
      <tag type="snapshot" id="8" name="amount"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

// TestTraceSmoke is the PR's acceptance test: one flight recorder spans
// the entire durable push pipeline — publish → segstore append/fsync →
// TCP (with fault-injected resets forcing at least one reconnect) →
// client delivery → shared registry evaluation → K=4 subscriber
// fan-outs — and a single trace id links all of it, with correct
// parent/child span edges. Runs under -race via make trace-smoke; the
// goroutine baseline check keeps the tracer from leaking anything.
func TestTraceSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()

	rec := xcql.NewFlightRecorder(xcql.FlightRecorderOptions{SampleEvery: 1, Capacity: 1024})

	// durable server
	seg, _, err := xcql.OpenSegStore(t.TempDir(), xcql.SegStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	structure := xcql.MustParseTagStructure(traceSmokeStructure)
	server, err := xcql.RecoverServer("credit", structure, seg)
	if err != nil {
		t.Fatal(err)
	}
	server.SetFlightRecorder(rec)
	seg.SetFlightRecorder(rec)

	// TCP with periodic connection resets: the client must reconnect and
	// resume at least once mid-burst
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	injector := xcql.NewFaultInjector(xcql.FaultPlan{Seed: 3, ResetEvery: 7})
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = xcql.ServeTCPOptions(server, ln, xcql.ServeOptions{Faults: injector})
	}()

	client, err := xcql.Dial(ln.Addr().String(), xcql.DialOptions{
		Reconnect:      true,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Rand:           rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	client.SetFlightRecorder(rec)

	// K=4 standing registrations sharing one evaluation per arrival
	engine := xcql.NewEngine()
	engine.AttachClient(client)
	engine.SetFlightRecorder(rec)
	qreg := engine.Registry()
	client.AttachRegistry(qreg)

	const K = 4
	var mu sync.Mutex
	traceIDs := make([]map[uint64]bool, K)
	for i := 0; i < K; i++ {
		i := i
		traceIDs[i] = make(map[uint64]bool)
		q, err := engine.Compile(fmt.Sprintf(
			`for $t in stream("credit")//transaction where $t/amount > %d return $t/amount`, i),
			xcql.QaCPlus)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := qreg.Register(q, xcql.RegistryOptions{
			OnResult: func(res xcql.RegistryResult) {
				mu.Lock()
				if res.TraceID != 0 {
					traceIDs[i][res.TraceID] = true
				}
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
	}

	// publish a burst long enough to cross several forced resets
	base := time.Now().UTC().Add(-time.Hour)
	el := func(src string) *xcql.Node { return xcql.MustParseDocument(src).Root() }
	server.Publish(xcql.NewFragment(0, 1, base,
		el(`<creditAccounts><hole id="1" tsid="2"/></creditAccounts>`)))
	server.Publish(xcql.NewFragment(1, 2, base,
		el(`<account id="1"><customer>A</customer></account>`)))
	holes := ""
	const events = 30
	for i := 0; i < events; i++ {
		txID := 100 + i
		holes += fmt.Sprintf(`<hole id="%d" tsid="5"/>`, txID)
		at := base.Add(time.Duration(i+1) * time.Minute)
		server.Publish(xcql.NewFragment(1, 2, at,
			el(fmt.Sprintf(`<account id="1"><customer>A</customer>%s</account>`, holes))))
		server.Publish(xcql.NewFragment(txID, 5, at,
			el(fmt.Sprintf(`<transaction id="t%d"><amount>%d</amount></transaction>`, i, 100*(i+1)))))
	}

	// orderly drain: eos triggers the client's final catch-up replay
	server.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := client.Stats()
		if st.LastSeq == server.Stats().LatestSeq && st.Missing == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := client.Stats(); st.Reconnects < 1 {
		t.Fatalf("fault injection never forced a reconnect (stats %+v)", st)
	}
	// let in-flight evaluations settle, then finalize every trace
	time.Sleep(50 * time.Millisecond)
	rec.Flush()

	// find a trace that crossed every layer with full fan-out
	type spanIdx map[uint64]xcql.TraceSpan
	var best *xcql.TraceRecord
	var bestFanout int
	for _, tr := range rec.Traces(xcql.TraceFilter{}) {
		names := map[string]int{}
		for _, sp := range tr.Spans {
			names[sp.Name]++
		}
		if names["publish"] == 1 && names["segstore.append"] >= 1 &&
			names["deliver"] >= 1 && names["registry.eval"] >= 1 &&
			names["fanout"] > bestFanout {
			best, bestFanout = tr, names["fanout"]
		}
	}
	if best == nil {
		t.Fatalf("no trace links publish→append→deliver→registry.eval (kept %d traces)",
			len(rec.Traces(xcql.TraceFilter{})))
	}
	if bestFanout < K {
		t.Fatalf("best trace fans out to %d registrations, want >= %d", bestFanout, K)
	}

	// verify the causal edges span by span
	byID := make(spanIdx, len(best.Spans))
	for _, sp := range best.Spans {
		byID[sp.SpanID] = sp
	}
	var publishID uint64
	for _, sp := range best.Spans {
		if sp.Name == "publish" {
			publishID = sp.SpanID
		}
	}
	if publishID == 0 {
		t.Fatal("publish span missing")
	}
	for _, sp := range best.Spans {
		switch sp.Name {
		case "publish":
			if sp.Parent != 0 {
				t.Fatalf("publish has a parent: %+v", sp)
			}
		case "segstore.append", "deliver", "registry.eval", "inc.recompute":
			if sp.Parent != publishID {
				t.Fatalf("%s parented to %d, want publish %d", sp.Name, sp.Parent, publishID)
			}
		case "segstore.fsync":
			if p, ok := byID[sp.Parent]; !ok || p.Name != "segstore.append" {
				t.Fatalf("fsync parented to %d (%s), want segstore.append", sp.Parent, p.Name)
			}
		case "fanout":
			if p, ok := byID[sp.Parent]; !ok || p.Name != "registry.eval" {
				t.Fatalf("fanout parented to %d (%s), want registry.eval", sp.Parent, p.Name)
			}
			if sp.Reg == 0 {
				t.Fatalf("fanout span missing registration id: %+v", sp)
			}
		}
	}

	// every registration's deliveries carried trace ids, and the best
	// trace reached every one of them
	mu.Lock()
	for i := 0; i < K; i++ {
		if len(traceIDs[i]) == 0 {
			t.Fatalf("registration %d never saw a traced result", i)
		}
		if !traceIDs[i][best.TraceID] {
			t.Fatalf("registration %d missing trace %016x", i, best.TraceID)
		}
	}
	mu.Unlock()

	// teardown everything with its own goroutines, then check the floor
	client.Close()
	ln.Close()
	<-serveDone
	seg.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(leakDeadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf)
}
