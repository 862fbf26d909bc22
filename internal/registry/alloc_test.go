//go:build !race

package registry

import (
	"bufio"
	"testing"
	"time"

	"xcql/internal/xq"
)

// replay is a reader that hands out the same bytes over and over: a socket
// whose server sends one frame forever.
type replay struct {
	b []byte
	i int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.i:])
	r.i = (r.i + n) % len(r.b)
	return n, nil
}

// TestSubscriberReadAllocationCeiling is the subscriber's part of `make
// alloc-gate`: Subscriber.Next reads a frame into the connection's kept
// buffer and then by hand, so a frame costs the one string all of its
// strings are substrings of and the Delta slice — 2 allocations for a
// one-item frame, 1 for a frame that delivers nothing, whose "delta":[] is
// a shared empty slice (14 and 10 with json.Unmarshal and a frame header
// read through io.ReadFull). Run without -race: the detector's
// instrumentation allocates on its own.
func TestSubscriberReadAllocationCeiling(t *testing.T) {
	at := time.Date(2003, 11, 5, 10, 0, 0, 0, time.UTC)
	item := churnEl(t, `<transaction id="t17"><vendor>Grocer</vendor><amount>38</amount></transaction>`)
	for _, c := range []struct {
		name    string
		res     Result
		ceiling float64
	}{
		{"one-item frame", Result{At: at, Delta: xq.Sequence{item}, TraceID: 0xdeadbeef}, 2},
		{"empty-delta frame", Result{At: at}, 1},
	} {
		payload, err := JSONCodec{}.AppendResult(nil, 7, c.res)
		if err != nil {
			t.Fatal(err)
		}
		frame := append(appendWSHeader(nil, opText, len(payload), false), payload...)
		s := &Subscriber{c: &wsClient{br: bufio.NewReader(&replay{b: frame})}}
		var got WireResult
		allocs := testing.AllocsPerRun(200, func() {
			if got, err = s.Next(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs per Next, ceiling %.0f", c.name, allocs, c.ceiling)
		}
		if got.ID != 7 || len(got.Delta) != len(c.res.Delta) {
			t.Fatalf("%s: read %+v", c.name, got)
		}
	}
}
