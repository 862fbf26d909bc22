package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultPlan configures deterministic transport chaos: what fraction of
// fragment frames to drop, duplicate, reorder or delay, and how often to
// kill the connection halfway through a frame. All probabilities are in
// [0,1] and drawn from one seeded RNG, so a (plan, seed, traffic) triple
// replays the same fault schedule every time.
type FaultPlan struct {
	Seed int64
	// DropProb silently discards a frame (the radio model's lost packet).
	DropProb float64
	// CorruptProb overwrites the frame's first byte, so what arrives is
	// not well-formed XML: the noise a client must skip and account for
	// like a drop.
	CorruptProb float64
	// DupProb writes a frame twice.
	DupProb float64
	// ReorderProb holds a frame back and emits it after its successor
	// (adjacent swap).
	ReorderProb float64
	// ResetProb closes the connection after writing only half a frame —
	// the mid-frame reset a crashing relay produces.
	ResetProb float64
	// MaxLatency sleeps a uniform random duration in [0, MaxLatency)
	// before each frame.
	MaxLatency time.Duration
	// ResetEvery deterministically resets the connection mid-frame on
	// every Nth frame (0 disables); it composes with ResetProb and is
	// how tests guarantee "at least one disconnect per run".
	ResetEvery int
}

// FaultStats counts the injected faults.
type FaultStats struct {
	Frames     int64 // fragment frames offered to the injector
	Dropped    int64
	Corrupted  int64
	Duplicated int64
	Reordered  int64
	Delayed    int64
	Resets     int64
}

// ErrInjectedReset is returned by the sink when the injector kills the
// connection mid-frame.
var ErrInjectedReset = errors.New("stream: fault injector reset connection mid-frame")

// FaultInjector applies a FaultPlan to every connection of a server. It
// is shared across connections (one RNG, one counter sequence), which
// keeps a single-client run fully deterministic.
type FaultInjector struct {
	plan FaultPlan
	logHolder

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats
}

// NewFaultInjector builds an injector for the plan, seeding its RNG from
// plan.Seed.
func NewFaultInjector(plan FaultPlan) *FaultInjector {
	return &FaultInjector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Stats returns a snapshot of the faults injected so far.
func (fi *FaultInjector) Stats() FaultStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.stats
}

func (fi *FaultInjector) String() string {
	st := fi.Stats()
	return fmt.Sprintf("faults: %d frames, %d dropped, %d corrupted, %d duplicated, %d reordered, %d delayed, %d resets",
		st.Frames, st.Dropped, st.Corrupted, st.Duplicated, st.Reordered, st.Delayed, st.Resets)
}

// wrap puts the injector between the serving loop and one connection.
func (fi *FaultInjector) wrap(next frameSink, conn net.Conn) frameSink {
	return &faultSink{fi: fi, next: next, conn: conn}
}

// faultSink is the per-connection view of the injector: the pending
// (held-back) frame is connection state, the RNG and counters are shared.
type faultSink struct {
	fi   *FaultInjector
	next frameSink
	conn net.Conn

	pending string // frame held back for reordering; "" when none
}

// decision is one frame's fate, drawn under the injector lock.
type decision struct {
	delay        time.Duration
	reset, drop  bool
	corrupt      bool
	dup, reorder bool
}

func (fi *FaultInjector) decide() decision {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.stats.Frames++
	var d decision
	p := fi.plan
	if p.MaxLatency > 0 {
		d.delay = time.Duration(fi.rng.Int63n(int64(p.MaxLatency)))
		fi.stats.Delayed++
	}
	if p.ResetEvery > 0 && fi.stats.Frames%int64(p.ResetEvery) == 0 {
		d.reset = true
	}
	if !d.reset && p.ResetProb > 0 && fi.rng.Float64() < p.ResetProb {
		d.reset = true
	}
	if d.reset {
		fi.stats.Resets++
		return d
	}
	if p.DropProb > 0 && fi.rng.Float64() < p.DropProb {
		d.drop = true
		fi.stats.Dropped++
		return d
	}
	if p.CorruptProb > 0 && fi.rng.Float64() < p.CorruptProb {
		d.corrupt = true
		fi.stats.Corrupted++
	}
	if p.DupProb > 0 && fi.rng.Float64() < p.DupProb {
		d.dup = true
		fi.stats.Duplicated++
	}
	if p.ReorderProb > 0 && fi.rng.Float64() < p.ReorderProb {
		d.reorder = true
		fi.stats.Reordered++
	}
	return d
}

func (fs *faultSink) WriteFrame(payload string) error {
	d := fs.fi.decide()
	if l := fs.fi.log(); l != nil && (d.reset || d.drop || d.corrupt || d.dup || d.reorder) {
		l.LogAttrs(logCtx, slog.LevelDebug, "fault injected",
			slog.String("component", "fault"),
			slog.Bool("reset", d.reset), slog.Bool("drop", d.drop), slog.Bool("corrupt", d.corrupt),
			slog.Bool("dup", d.dup), slog.Bool("reorder", d.reorder))
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.reset {
		// the frames before this one reach the peer whole; then write the
		// length prefix and half the payload, and kill the connection: the
		// peer sees a frame that never completes
		if err := fs.next.Flush(); err != nil {
			return err
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		_, _ = fs.conn.Write(hdr[:])
		_, _ = io.WriteString(fs.conn, payload[:len(payload)/2])
		fs.conn.Close()
		return ErrInjectedReset
	}
	if d.drop {
		return nil
	}
	if d.corrupt {
		// a copy: the payload is every other connection's too
		payload = "#" + payload[1:]
	}
	// a held-back frame is released after the current one (adjacent swap)
	release := fs.pending
	fs.pending = ""
	if d.reorder {
		fs.pending = payload
		if release != "" {
			return fs.next.WriteFrame(release)
		}
		return nil
	}
	writes := []string{payload}
	if d.dup {
		writes = append(writes, payload)
	}
	if release != "" {
		writes = append(writes, release)
	}
	for _, p := range writes {
		if err := fs.next.WriteFrame(p); err != nil {
			return err
		}
	}
	return nil
}

// Flush releases a held-back frame at orderly shutdown so reordering
// never turns into a drop.
func (fs *faultSink) Flush() error {
	release := fs.pending
	fs.pending = ""
	if release != "" {
		if err := fs.next.WriteFrame(release); err != nil {
			return err
		}
	}
	return fs.next.Flush()
}
