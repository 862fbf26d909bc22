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
// and cannot block the transmitter. Unlike a radio, every fragment carries
// a sequence number, so the client that missed one sees the gap and can
// invalidate results that depended on the lost fillers; the server counts
// the drops (ServerStats.Dropped).
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
	durableGen    uint64 // counts AttachDurable calls: which log a delta's predecessor went to

	// tracer, when set, stamps every published fragment with a fresh
	// trace context (or joins one already carried by a relayed fragment)
	// and records the publish span. Guarded by mu; nil = tracing off.
	tracer *obs.FlightRecorder

	// bases holds, for each filler a version of which has announced a hole,
	// the version published last: the one its next version's wire form is
	// sealed over as a delta frame (fragment.SealedOver). One entry per
	// parent filler, whatever its history. Guarded by mu.
	bases map[int]baseVersion
}

// baseVersion is the version of a filler published last, and what decides
// whether a delta frame may name it as its predecessor: a receiver must
// find it by its validTime alone, so it must be later, as the wire spells
// it, than every earlier version of the filler (unique); and a durable log
// must hold it (log), so that a replay of the log links the delta.
type baseVersion struct {
	f      *fragment.Fragment
	latest time.Time // the latest validTime of the filler's versions, as the wire spells it
	unique bool
	log    uint64 // the generation of the durable log f was written to, 0 when none took it
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
		bases:     make(map[int]baseVersion),
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

// trimHistoryLocked drops the oldest fragments past the limit in place:
// the survivors move to the front of the same array and the slots they
// vacate are cleared, so the dropped fragments can be collected and a
// full window costs no allocation per publish.
func (s *Server) trimHistoryLocked() {
	if s.historyLimit > 0 && len(s.history) > s.historyLimit {
		n := copy(s.history, s.history[len(s.history)-s.historyLimit:])
		clear(s.history[n:])
		s.history = s.history[:n]
	}
}

// Subscription is one registered client's feed.
type Subscription struct {
	server *Server
	ch     chan *fragment.Fragment
	// wire marks a subscription whose consumer writes wire bytes.
	wire bool
	// lostFrom and lostTo are the sequence numbers a wire subscription's
	// consumer resumed without and can never be sent — its resume position
	// was behind the replay window —, both 0 when none: a delta frame over
	// a version among them goes to it in the full form.
	lostFrom, lostTo uint64

	// guarded by server.mu — a single lock serializes Publish, Cancel and
	// Close, so the channel is never closed while a send is in flight.
	closed bool
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
	replay := s.replayLocked(afterSeq)
	first := s.nextSeq + 1
	if len(replay) > 0 {
		first = replay[0].Seq
	}
	var lostFrom, lostTo uint64
	if first > afterSeq+1 {
		lostFrom, lostTo = afterSeq+1, first-1
		// a replayed delta frame over a version the consumer never gets
		// goes in the full form: an unstamped copy encodes it
		for i, f := range replay {
			if prev, _ := f.Predecessor(); prev != nil && prev.Seq >= lostFrom && prev.Seq <= lostTo {
				replay[i] = f.WithSeq(f.Seq)
			}
		}
	}
	sub := s.subscribeLocked(buffer, replay, true)
	sub.lostFrom, sub.lostTo = lostFrom, lostTo
	return sub
}

// lacks reports whether the subscription's consumer can never have been
// sent the fragment with sequence number seq.
func (sub *Subscription) lacks(seq uint64) bool {
	return sub.lostTo > 0 && seq >= sub.lostFrom && seq <= sub.lostTo
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
// replay. Subscribers with full buffers miss it; the miss is counted in
// ServerStats.Dropped. The publish-instant stamp (Fragment.PublishedAt) is what
// in-process clients measure delivery latency against.
//
// The wire form a durable log and the connections get is a delta frame
// when the fragment's payload is the one of its filler's version published
// before it with children appended (fragment.SealedOver): a
// re-announcement carries only what it adds. A connection whose consumer
// can never have received that version gets the full form.
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
	gen := s.durableGen // the log d is: a log attached meanwhile never sees this version
	prev, tracked := s.bases[stamped.FillerID]
	var base *fragment.Fragment
	if tracked && prev.unique && (d == nil || prev.log == gen) {
		base = prev.f
	}
	s.mu.Unlock()

	// every stamp is on: wired is stamped plus the one encoding the
	// durable log frames and every connection writes — over base, a delta
	// frame where it can be one. It goes to those who write bytes and is
	// garbage once they have; the replay window and the in-process
	// subscribers keep the fragment without it. With nobody to write bytes
	// there is no encoding at all (a connection that joins before the
	// fan-out below makes its own, as one replaying the window does).
	wired, delta := stamped, false
	if seal {
		wired, delta = stamped.SealedOver(base)
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
	if tracked || stamped.AnnouncesHole() {
		at := stamped.ValidTime.Truncate(time.Second)
		next := baseVersion{f: stamped, latest: at, unique: !tracked || at.After(prev.latest)}
		if tracked && prev.latest.After(at) {
			next.latest = prev.latest
		}
		if d != nil && derr == nil {
			next.log = gen
		}
		s.bases[stamped.FillerID] = next
	}
	s.history = append(s.history, stamped)
	s.trimHistoryLocked()
	drops := 0
	var whole *fragment.Fragment // the full form, for a consumer without base
	for sub := range s.subs {
		out := stamped
		if sub.wire {
			out = wired
			if delta && sub.lacks(base.Seq) {
				if whole == nil {
					whole = stamped.Sealed()
				}
				out = whole
			}
		}
		select {
		case sub.ch <- out:
		default:
			s.dropped++
			drops++
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

// ServerStats is a point-in-time snapshot of the server's progress and
// delivery counters: the one read-out of a server, which the metrics
// gauges, WatermarkLag and the demo's status page all read.
type ServerStats struct {
	// LatestSeq is the sequence number of the most recently published
	// fragment: the number of fragments published, and the server's
	// sequence watermark.
	LatestSeq uint64
	// Watermark is the latest validTime ever published — the server's
	// event-time watermark; zero before the first publish. Monotone by
	// construction: late data (an older validTime) is published and
	// sequenced but never moves it backwards, so a stalled watermark
	// means a stalled stream, never a transport hiccup.
	Watermark time.Time
	// Dropped is the number of deliveries lost to full subscriber
	// buffers, across all subscriptions.
	Dropped int64
	// Subscribers is the number of live subscriptions.
	Subscribers int
	// MaxQueueDepth is the deepest subscriber backlog: fragments sitting
	// in a subscription buffer, delivered but not yet consumed. With
	// per-event latency it is what shows whether consumers keep up
	// (Koch et al., PAPERS.md); a depth pinned at a buffer's capacity
	// means the next publish drops for that subscriber.
	MaxQueueDepth int
	// Retained is the number of fragments in the replay window, which
	// spans sequence numbers [OldestRetained, LatestSeq]; OldestRetained
	// is 0 when nothing has been published.
	Retained       int
	OldestRetained uint64
	// ResumeFloor is the lowest resume position the server can serve
	// losslessly — OldestRetained-1 from the in-memory window alone,
	// lower when a durable log bridges further back.
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
		LatestSeq:     s.nextSeq,
		Watermark:     s.watermark,
		Dropped:       s.dropped,
		Subscribers:   len(s.subs),
		Retained:      len(s.history),
		ResumeFloor:   s.resumeFloorLocked(),
		Bootstraps:    s.bootstraps,
		StorageErrors: s.storageErrors,
	}
	for sub := range s.subs {
		st.MaxQueueDepth = max(st.MaxQueueDepth, len(sub.ch))
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
