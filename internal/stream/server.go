// Package stream implements the push-based dissemination model of §1: a
// small number of servers multicast fragment streams to many receive-only
// clients. A client registers once (a pull-based handshake that delivers
// the stream's Tag Structure) and then consumes fillers without ever
// acknowledging them; the server never hears back during normal flow.
//
// Reliability model (see DESIGN.md, "Reliability model"): every published
// fragment is stamped with a monotonically increasing per-stream sequence
// number, so clients detect gaps and duplicates instead of silently
// corrupting their temporal view. The server retains a (bounded) replay
// window; a reconnecting client resumes from its last seen sequence and
// the server replays the missing suffix. When the window has already
// slid past the client's position the client surfaces an explicit
// unrecoverable gap rather than pretending nothing happened.
//
// Two transports are provided: an in-process broker (used by tests,
// benchmarks and the continuous-query runtime) and TCP with a
// length-prefixed XML wire format (cmd/streamdemo).
package stream

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
)

// Server is a broadcast source for one named fragment stream. Fragments
// published while a subscriber's buffer is full are dropped for that
// subscriber — the radio-transmitter model: a slow client misses packets
// and cannot block the transmitter. Unlike a radio, the drop is recorded
// per subscription (filler ids and sequence numbers), so downstream
// consumers can invalidate results that depended on the lost fillers.
type Server struct {
	name      string
	structure *tagstruct.Structure
	logHolder

	// pubMu serializes publishes end to end so the durable write-through
	// order always equals the sequence order; mu guards the shared state
	// and is never held across a disk sync. Lock order: pubMu before mu.
	pubMu sync.Mutex

	mu   sync.Mutex
	subs map[*Subscription]struct{}
	// wireSubs counts the live subscriptions that write fragments out as
	// bytes (TCP connections): with any of them, or a durable log,
	// attached, Publish makes the wire form, once for all of them.
	wireSubs     int
	history      []*fragment.Fragment // seq-stamped, retained for replay
	historyLimit int                  // max retained fragments; 0 = unbounded
	nextSeq      uint64               // last assigned sequence number
	watermark    time.Time            // max validTime ever published (monotone)
	dropped      int64
	closed       bool

	// durable bootstrap (see durable.go): a write-through log that serves
	// resume positions older than the in-memory window
	durable       DurableLog
	durableBroken string // first write-through error; sticky
	bootstraps    int64  // subscriptions bridged from the durable log
	storageErrors int64  // durable write/read failures

	// tracer, when set, stamps every published fragment with a fresh
	// trace context (or joins one already carried by a relayed fragment)
	// and records the publish span. Guarded by mu; nil = tracing off.
	tracer *obs.FlightRecorder
}

// SetFlightRecorder attaches a flight recorder: every subsequent Publish
// stamps the fragment with a trace context (Fragment.Trace, carried on
// the wire) and records a "publish" root span. nil detaches.
func (s *Server) SetFlightRecorder(rec *obs.FlightRecorder) {
	s.mu.Lock()
	s.tracer = rec
	s.mu.Unlock()
}

// NewServer creates a server for the named stream.
func NewServer(name string, structure *tagstruct.Structure) *Server {
	return &Server{
		name:      name,
		structure: structure,
		subs:      make(map[*Subscription]struct{}),
	}
}

// Name returns the stream name clients query with stream(name).
func (s *Server) Name() string { return s.name }

// Structure returns the stream's tag structure, delivered to clients at
// registration.
func (s *Server) Structure() *tagstruct.Structure { return s.structure }

// SetHistoryLimit bounds the replay window to the last n fragments
// (n <= 0 means unbounded, the default). A smaller window uses less
// memory but makes older resume positions unrecoverable.
func (s *Server) SetHistoryLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	s.historyLimit = n
	s.trimHistoryLocked()
}

func (s *Server) trimHistoryLocked() {
	if s.historyLimit > 0 && len(s.history) > s.historyLimit {
		excess := len(s.history) - s.historyLimit
		// re-slice with copy so the dropped prefix can be collected
		trimmed := make([]*fragment.Fragment, s.historyLimit)
		copy(trimmed, s.history[excess:])
		s.history = trimmed
	}
}

// Subscription is one registered client's feed.
type Subscription struct {
	server *Server
	ch     chan *fragment.Fragment
	// wire marks a subscription whose consumer writes wire bytes.
	wire bool

	// guarded by server.mu — a single lock serializes Publish, Cancel and
	// Close, so the channel is never closed while a send is in flight.
	closed      bool
	droppedIDs  []int    // filler ids this subscription missed
	droppedSeqs []uint64 // and their sequence numbers
}

// C is the fragment feed. It is closed when the server shuts down or the
// subscription is cancelled.
func (sub *Subscription) C() <-chan *fragment.Fragment { return sub.ch }

// Cancel unregisters the subscription. Safe to call more than once and
// safe to race with Publish and Close.
func (sub *Subscription) Cancel() {
	s := sub.server
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	s.dropLocked(sub)
	close(sub.ch)
}

// DroppedFillers returns the filler ids this subscription missed because
// its buffer was full, in publish order (one entry per missed delivery,
// so a filler id published twice and missed twice appears twice).
// ContinuousQuery uses this to invalidate results that depended on the
// lost fillers.
func (sub *Subscription) DroppedFillers() []int {
	s := sub.server
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(sub.droppedIDs))
	copy(out, sub.droppedIDs)
	return out
}

// DroppedSeqs returns the sequence numbers of the deliveries this
// subscription missed, in publish order.
func (sub *Subscription) DroppedSeqs() []uint64 {
	s := sub.server
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, len(sub.droppedSeqs))
	copy(out, sub.droppedSeqs)
	return out
}

// Subscribe registers a client with the given buffer capacity and replays
// the retained history (catchUp=true) so a late joiner sees the initial
// document. The paper's clients register exactly once.
func (s *Server) Subscribe(buffer int, catchUp bool) *Subscription {
	if catchUp {
		return s.SubscribeFrom(buffer, 0)
	}
	return s.subscribe(buffer, nil)
}

// SubscribeFrom registers a client that has already seen every fragment
// up to and including sequence number afterSeq: the retained history with
// seq > afterSeq is replayed into the subscription before any live
// fragment. afterSeq = 0 replays the whole retained window (a fresh
// catch-up join). If the replay window has already slid past afterSeq
// but an attached durable log still covers the gap, the missing prefix
// is bridged from the log (snapshot bootstrap); otherwise the replay
// starts at the oldest retained fragment and the client's gap detection
// surfaces the missing middle.
func (s *Server) SubscribeFrom(buffer int, afterSeq uint64) *Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subscribeLocked(buffer, s.replayLocked(afterSeq), false)
}

// subscribeWire is SubscribeFrom for a consumer that writes every
// fragment out as bytes: while it is subscribed, Publish seals.
func (s *Server) subscribeWire(buffer int, afterSeq uint64) *Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subscribeLocked(buffer, s.replayLocked(afterSeq), true)
}

func (s *Server) subscribe(buffer int, replay []*fragment.Fragment) *Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subscribeLocked(buffer, replay, false)
}

// dropLocked forgets a live subscription. The caller holds s.mu.
func (s *Server) dropLocked(sub *Subscription) {
	delete(s.subs, sub)
	if sub.wire {
		s.wireSubs--
	}
}

func (s *Server) subscribeLocked(buffer int, replay []*fragment.Fragment, wire bool) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{server: s, wire: wire, ch: make(chan *fragment.Fragment, buffer+len(replay))}
	for _, f := range replay {
		sub.ch <- f // fits: capacity covers the replay
	}
	if s.closed {
		sub.closed = true
		close(sub.ch)
		return sub
	}
	s.subs[sub] = struct{}{}
	if wire {
		s.wireSubs++
	}
	return sub
}

// Publish stamps one fragment with the next sequence number and the
// publish instant, multicasts it to every subscriber and retains it for
// replay. Subscribers with full buffers miss it; the miss is recorded on
// the subscription (filler id + seq) and in the aggregate Dropped
// counter. The publish-instant stamp (Fragment.PublishedAt) is what
// in-process clients measure delivery latency against.
//
// With a durable log attached the write-through (an fsync per publish by
// default) happens between sequence assignment and delivery — still
// write-ahead, so a crash can never deliver a frame the log lost — but
// outside the state lock: a slow disk serializes concurrent publishers
// (pubMu), never subscribers, Stats or subscriptions.
func (s *Server) Publish(f *fragment.Fragment) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.nextSeq++
	stamped := f.WithSeq(s.nextSeq)
	stamped.PublishedAt = time.Now()
	// root span of the fragment's journey: downstream layers (segstore,
	// client delivery, registry evaluation/fan-out) parent to it through
	// the trace context stamped on the fragment. A fragment arriving with
	// a trace already on it (a relay) joins that trace instead.
	var psp *obs.Span
	if rec := s.tracer; rec != nil {
		tc := stamped.Trace
		if !tc.Valid() {
			tc = rec.NewTrace()
		}
		psp = rec.Start(tc, "publish").Annotate(s.name, stamped.TSID, stamped.Seq)
		stamped.Trace = psp.Context()
	}
	if stamped.ValidTime.After(s.watermark) {
		s.watermark = stamped.ValidTime
	}
	d := s.durable
	if s.durableBroken != "" {
		d = nil
	}
	seal := d != nil || s.wireSubs > 0
	s.mu.Unlock()

	// every stamp is on: wired is stamped plus the one encoding the
	// durable log frames and every connection writes. It goes to those who
	// write bytes and is garbage once they have; the replay window and the
	// in-process subscribers keep the fragment without it. With nobody to
	// write bytes there is no encoding at all (a connection that joins
	// before the fan-out below makes its own, as one replaying the window
	// does).
	wired := stamped
	if seal {
		wired = stamped.Sealed()
	}
	var derr error
	if d != nil {
		derr = d.Append(wired)
	}

	s.mu.Lock()
	if derr != nil && s.durable == d {
		// first failure marks the log broken (sticky): the resume floor
		// immediately retreats to the in-memory window. Delivery proceeds
		// — the radio keeps transmitting.
		s.storageErrors++
		if s.durableBroken == "" {
			s.durableBroken = derr.Error()
		}
	}
	if s.closed {
		// closed while the durable append was in flight: the frame is on
		// disk (recovery will replay it) but there is nobody to deliver to
		s.mu.Unlock()
		psp.End()
		return
	}
	s.history = append(s.history, stamped)
	s.trimHistoryLocked()
	drops := 0
	for sub := range s.subs {
		out := stamped
		if sub.wire {
			out = wired
		}
		select {
		case sub.ch <- out:
		default:
			s.dropped++
			drops++
			sub.droppedIDs = append(sub.droppedIDs, stamped.FillerID)
			sub.droppedSeqs = append(sub.droppedSeqs, stamped.Seq)
		}
	}
	rec := s.tracer
	s.mu.Unlock()
	if psp != nil {
		psp.SetDetail(fmt.Sprintf("filler=%d subs_missed=%d", stamped.FillerID, drops))
		psp.End()
		if drops > 0 {
			rec.Flag(stamped.Trace.TraceID, "overflow-drop")
		}
	}
	if derr != nil {
		if l := s.log(); l != nil {
			l.LogAttrs(logCtx, slog.LevelError, "durable write-through failed, log marked broken",
				slog.String("component", "server"), slog.String("stream", s.name),
				slog.Uint64("seq", stamped.Seq), slog.String("err", derr.Error()))
		}
	}
	if l := s.log(); l != nil {
		l.LogAttrs(logCtx, slog.LevelDebug, "publish",
			slog.String("component", "server"), slog.String("stream", s.name),
			slog.Uint64("seq", stamped.Seq), slog.Int("fillerID", stamped.FillerID))
		if drops > 0 {
			l.LogAttrs(logCtx, slog.LevelWarn, "subscriber buffer full, delivery dropped",
				slog.String("component", "server"), slog.String("stream", s.name),
				slog.Uint64("seq", stamped.Seq), slog.Int("fillerID", stamped.FillerID),
				slog.Int("subscribers_missed", drops))
		}
	}
}

// PublishAll publishes fragments in order.
func (s *Server) PublishAll(fs []*fragment.Fragment) {
	for _, f := range fs {
		s.Publish(f)
	}
}

// Dropped reports how many fragment deliveries were lost to full
// subscriber buffers, across all subscriptions.
func (s *Server) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// History returns a copy of the retained fragment log (seq-stamped).
func (s *Server) History() []*fragment.Fragment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*fragment.Fragment, len(s.history))
	copy(out, s.history)
	return out
}

// LatestSeq returns the sequence number of the most recently published
// fragment (0 before the first publish).
func (s *Server) LatestSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}

// OldestRetained returns the sequence number of the oldest fragment still
// in the replay window, or 0 when nothing has been published. A resume
// from afterSeq < OldestRetained()-1 cannot be satisfied losslessly.
func (s *Server) OldestRetained() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.history) == 0 {
		return 0
	}
	return s.history[0].Seq
}

// ServerStats is a point-in-time snapshot of the server's delivery
// counters.
type ServerStats struct {
	// Published is the number of fragments published (== the latest
	// assigned sequence number).
	Published uint64
	// Dropped is the number of deliveries lost to full subscriber
	// buffers, across all subscriptions.
	Dropped int64
	// Subscribers is the number of live subscriptions.
	Subscribers int
	// Retained is the number of fragments in the replay window, which
	// spans sequence numbers [OldestRetained, LatestSeq].
	Retained       int
	OldestRetained uint64
	LatestSeq      uint64
	// ResumeFloor is the lowest resume position the server can serve
	// losslessly — OldestRetained-1 from the in-memory window alone,
	// lower when a durable log bridges further back (see ResumeFloor).
	ResumeFloor uint64
	// Bootstraps counts subscriptions whose replay was bridged from the
	// durable log because the in-memory window had slid past them.
	Bootstraps int64
	// StorageErrors counts durable log failures (write-through and
	// bridge reads). The first write failure marks the log broken.
	StorageErrors int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServerStats{
		Published:     s.nextSeq,
		Dropped:       s.dropped,
		Subscribers:   len(s.subs),
		Retained:      len(s.history),
		LatestSeq:     s.nextSeq,
		ResumeFloor:   s.resumeFloorLocked(),
		Bootstraps:    s.bootstraps,
		StorageErrors: s.storageErrors,
	}
	if len(s.history) > 0 {
		st.OldestRetained = s.history[0].Seq
	}
	return st
}

// Close shuts the stream down: all subscriptions are cancelled and future
// publishes are ignored.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for sub := range s.subs {
		s.dropLocked(sub)
		sub.closed = true
		close(sub.ch)
	}
	seq := s.nextSeq
	s.mu.Unlock()
	if l := s.log(); l != nil {
		l.LogAttrs(logCtx, slog.LevelInfo, "server closed",
			slog.String("component", "server"), slog.String("stream", s.name),
			slog.Uint64("seq", seq))
	}
}
