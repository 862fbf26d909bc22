package stream

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/registry"
	"xcql/internal/tagstruct"
)

// maxTrackedMissing bounds the set of jumped-over sequence numbers the
// client remembers in the hope of a late arrival or replay. A gap wider
// than the bound is written off immediately as permanent loss instead of
// growing the set without limit.
const maxTrackedMissing = 4096

// maxKeptErrs bounds the ingestion errors a client keeps for Errs: a
// receive-only client cannot make a noisy link stop, so what it remembers
// of the noise must not grow with it. ClientStats.Errors has the total.
const maxKeptErrs = 64

// Gap reasons a client records for fragments it may still receive: one
// lost on the way, and a delta frame whose predecessor it does not hold.
const (
	reasonLost          = "lost in transit"
	reasonNoPredecessor = "predecessor missing"
)

// Gap describes a run of sequence numbers the client has not received —
// fragments lost on the transport (which may still heal via reordering or
// replay) or a resume position the server no longer retained (permanent).
type Gap struct {
	// [From, To] is the inclusive range of missing sequence numbers.
	From, To uint64
	// Reason distinguishes how the gap was discovered: "lost in transit"
	// (a later fragment arrived first), "predecessor missing" (a delta
	// frame arrived over a version the client does not hold; a resume
	// replays it) or "unrecoverable: …" (the server's replay window had
	// already slid past the resume position).
	Reason string
}

// Missing returns the number of fragments the gap spans.
func (g Gap) Missing() uint64 { return g.To - g.From + 1 }

func (g Gap) String() string {
	return fmt.Sprintf("gap [%d,%d] (%d fragments, %s)", g.From, g.To, g.Missing(), g.Reason)
}

// ClientStats is a point-in-time snapshot of a client's progress and
// receive counters: the one read-out of a client, which the metrics
// gauges, WatermarkLag and the demo's status page all read.
type ClientStats struct {
	// Received counts fragments applied to the store.
	Received int64
	// Duplicates counts sequenced fragments discarded because they had
	// already been applied (transport duplicates and replay overlap).
	Duplicates int64
	// Replayed counts late arrivals that healed a previously detected
	// gap (reordered frames and resumed replay).
	Replayed int64
	// Gaps is the number of gap events detected (including ones that
	// later healed).
	Gaps int
	// Missing is the number of sequence numbers currently unaccounted
	// for — detected as skipped but neither received nor written off.
	Missing int
	// Lost is the number of fragments known to be permanently
	// unrecoverable (the server's replay window slid past them).
	Lost uint64
	// Reconnects counts successful re-registrations after a transport
	// failure.
	Reconnects int64
	// The reconnect_outcome family classifies every successful
	// re-registration by how the resume position was served:
	// ReconnectReplay — the in-memory replay window covered it;
	// ReconnectSnapshot — the window had slid past it but the server
	// bridged the gap from its durable log (snapshot + delta bootstrap);
	// ReconnectDegraded — neither could, and the loss was written off as
	// an unrecoverable gap.
	ReconnectReplay   int64
	ReconnectSnapshot int64
	ReconnectDegraded int64
	// Errors counts the frames and fragments skipped as malformed since the
	// client started; Errs returns the most recent of them.
	Errors int64
	// LastSeq is the highest sequence number seen (including fragments
	// that skipped ahead over a gap): the client's sequence watermark.
	LastSeq uint64
	// Watermark is the latest validTime applied to the store — the
	// client's event-time watermark; zero before the first fragment.
	// Monotone by construction: duplicates, reorders and replays may
	// arrive in any order, and a replayed or reordered old fragment is
	// applied but never moves it backwards.
	Watermark time.Time
	// Lag is the distance between the server's latest advertised
	// sequence number (learned at each handshake) and LastSeq — how far
	// behind the client knows itself to be (0 when caught up or before a
	// handshake has advertised a position).
	Lag uint64
	// Degraded is the non-empty degradation reason while any fragment is
	// missing or permanently lost: query results may silently miss the
	// lost fillers.
	Degraded string
}

// Client is a stream receiver: it feeds arriving fragments into a local
// fragment store and notifies continuous queries. Clients are the
// sophisticated side of the paper's architecture — all query processing
// happens here, including loss accounting: a receive-only client cannot
// slow the transmitter down, but with sequenced fragments it can always
// tell what it missed, re-request it on the next registration, and say
// out loud what could not be recovered.
type Client struct {
	name  string
	store *fragment.Store
	logHolder
	// delivery is the per-subscription delivery-latency histogram:
	// publish instant (Fragment.PublishedAt, stamped by an in-process
	// server) to Apply. Fragments without a publish stamp — hand-built
	// or TCP-transported, where clock domains differ — are not observed.
	delivery *obs.Histogram
	// tracer, when set, records a "deliver" span per traced fragment
	// (parented to the publish span through Fragment.Trace) and flags
	// gap traces. Atomic: Apply runs on the feeding goroutine while
	// SetFlightRecorder may be called from anywhere.
	tracer atomic.Pointer[obs.FlightRecorder]

	// listeners is copy-on-write: OnFragment publishes a new list, and
	// Apply reads the current one without a lock or a copy.
	listeners atomic.Pointer[[]func(*fragment.Fragment)]

	mu           sync.Mutex
	gapListeners []func(Gap)
	errs         []error // the last maxKeptErrs of errTotal
	errTotal     int64
	done         chan struct{}
	closeOnce    sync.Once

	// reliability state, guarded by mu
	lastSeq    uint64
	baselined  bool            // lastSeq anchored by a handshake window
	missing    map[uint64]bool // skipped seqs that may still heal
	lost       uint64          // seqs written off as unrecoverable
	latestSeen uint64          // server's latest seq from the last handshake
	watermark  time.Time       // max validTime applied (monotone)
	received   int64
	duplicates int64
	replayed   int64
	reconnects int64
	// reconnect_outcome family (see ClientStats)
	reconnectReplay   int64
	reconnectSnapshot int64
	reconnectDegraded int64
	gaps              []Gap
	degraded          string // sticky reason for permanent loss
}

// NewClient builds a client for a stream with the given tag structure
// (obtained from the registration handshake).
func NewClient(name string, structure *tagstruct.Structure) *Client {
	return &Client{
		name:     name,
		store:    fragment.NewStore(structure),
		delivery: obs.NewHistogram(),
		missing:  make(map[uint64]bool),
		done:     make(chan struct{}),
	}
}

// SetFlightRecorder attaches a flight recorder: traced fragments record
// a "deliver" span covering store apply and listener fan-out, gap
// detections flag the discovering fragment's trace, and the delivery
// histogram keeps trace-id exemplars. nil detaches.
func (c *Client) SetFlightRecorder(rec *obs.FlightRecorder) {
	c.tracer.Store(rec)
}

// DeliveryLatency is the publish→apply latency histogram of fragments
// delivered by an in-process server (see Client.delivery). Replayed
// fragments count with their full replay delay: delivery latency is the
// time the data was in flight, however it finally arrived.
func (c *Client) DeliveryLatency() *obs.Histogram { return c.delivery }

// Name returns the stream name.
func (c *Client) Name() string { return c.name }

// Store exposes the client's fragment store for query registration.
func (c *Client) Store() *fragment.Store { return c.store }

// OnFragment registers a callback invoked after each fragment is applied
// to the store. Callbacks run on the feeding goroutine and must be quick.
func (c *Client) OnFragment(fn func(*fragment.Fragment)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.listenerList()
	next := append(cur[:len(cur):len(cur)], fn)
	c.listeners.Store(&next)
}

// listenerList returns the current listeners: a list nobody writes.
func (c *Client) listenerList() []func(*fragment.Fragment) {
	if p := c.listeners.Load(); p != nil {
		return *p
	}
	return nil
}

// OnGap registers a callback invoked whenever a sequence gap is detected
// (lost fragments or an unrecoverable resume). Callbacks run on the
// feeding goroutine, after the gap has been recorded. A gap may heal
// later (reordered frame, resumed replay); the callback fires at
// detection time regardless, so consumers can invalidate conservatively.
func (c *Client) OnGap(fn func(Gap)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gapListeners = append(c.gapListeners, fn)
}

// AttachRegistry wires the client into a standing-query registry: every
// applied fragment triggers one shared evaluation pass, and a sequence
// gap invalidates every registration — a lost filler can never silently
// narrow any subscriber's result.
func (c *Client) AttachRegistry(r *registry.Registry) {
	c.OnGap(func(g Gap) { r.InvalidateAll(g.String()) })
	c.OnFragment(r.Apply)
}

// Apply ingests one fragment and fans out notifications. Malformed
// fragments are recorded (Errs) and skipped — a broadcast client cannot
// reject delivery, so it must tolerate noise.
//
// Sequenced fragments (Seq > 0) additionally pass loss accounting:
//
//   - a fragment that skips ahead records the skipped range as a Gap
//     (the skipped seqs are remembered and may heal later);
//   - a fragment whose seq is in the missing set heals it (late arrival
//     via reordering or replay) and is applied;
//   - any other already-seen seq is discarded as a duplicate.
//
// Unsequenced fragments (Seq == 0, e.g. hand-built in tests) bypass the
// accounting entirely.
func (c *Client) Apply(f *fragment.Fragment) {
	rec := c.tracer.Load()
	dsp := rec.Start(f.Trace, "deliver").Annotate(c.name, f.TSID, f.Seq)
	defer dsp.End()
	if !f.PublishedAt.IsZero() {
		c.delivery.ObserveExemplar(time.Since(f.PublishedAt), f.Trace.TraceID)
	}
	var gap *Gap
	if f.Seq > 0 {
		c.mu.Lock()
		switch {
		case f.Seq > c.lastSeq:
			// Without a baseline the first sequenced arrival just anchors
			// the position (a late joiner legitimately starts mid-stream);
			// with one, any skip is a real gap.
			if (c.baselined || c.lastSeq > 0) && f.Seq > c.lastSeq+1 {
				g := Gap{From: c.lastSeq + 1, To: f.Seq - 1, Reason: reasonLost}
				c.markMissingLocked(g)
				gap = &g
			}
			c.lastSeq = f.Seq
		case c.missing[f.Seq]:
			delete(c.missing, f.Seq)
			c.replayed++
			// a healed gap is the resume path working: mark the span so
			// tracez shows which deliveries arrived via replay
			dsp.SetDetail("replayed")
		default:
			c.duplicates++
			c.mu.Unlock()
			dsp.SetDetail("duplicate")
			return
		}
		c.mu.Unlock()
	}
	if gap != nil {
		// the trace that *discovered* the gap is always worth keeping
		rec.Flag(f.Trace.TraceID, "gap")
		c.notifyGap(*gap)
	}
	if err := c.store.Add(f); err != nil {
		var missing *fragment.MissingPredecessorError
		if errors.As(err, &missing) && f.Seq > 0 {
			// a delta frame over a version this client does not hold is no
			// version here: its seq is missing, as if the frame were lost,
			// and a resume replays it
			g := Gap{From: f.Seq, To: f.Seq, Reason: reasonNoPredecessor}
			c.mu.Lock()
			c.markMissingLocked(g)
			c.mu.Unlock()
			rec.Flag(f.Trace.TraceID, "gap")
			c.notifyGap(g)
			return
		}
		c.addErr(err)
		if l := c.log(); l != nil {
			l.LogAttrs(logCtx, slog.LevelError, "malformed fragment skipped",
				slog.String("component", "client"), slog.String("stream", c.name),
				slog.Uint64("seq", f.Seq), slog.Int("fillerID", f.FillerID),
				slog.String("err", err.Error()))
		}
		return
	}
	c.mu.Lock()
	c.received++
	// event-time watermark: only ever moves forward, so replayed and
	// reordered old fragments never rewind the client's progress claim
	if f.ValidTime.After(c.watermark) {
		c.watermark = f.ValidTime
	}
	c.mu.Unlock()
	if l := c.log(); l != nil {
		l.LogAttrs(logCtx, slog.LevelDebug, "fragment applied",
			slog.String("component", "client"), slog.String("stream", c.name),
			slog.Uint64("seq", f.Seq), slog.Int("fillerID", f.FillerID))
	}
	for _, fn := range c.listenerList() {
		fn(f)
	}
}

// markMissingLocked records a detected gap: its seqs join the missing set
// up to the tracking bound; the overflow is written off as lost. The
// caller holds c.mu.
func (c *Client) markMissingLocked(g Gap) {
	c.gaps = append(c.gaps, g)
	for s := g.From; s <= g.To; s++ {
		if len(c.missing) >= maxTrackedMissing {
			c.lost += g.To - s + 1
			c.setDegradedLocked(fmt.Sprintf("degraded: %s (tracking bound exceeded)", g))
			return
		}
		c.missing[s] = true
	}
}

func (c *Client) setDegradedLocked(reason string) {
	c.degraded = reason
}

func (c *Client) notifyGap(g Gap) {
	if l := c.log(); l != nil {
		level := slog.LevelWarn
		if g.Reason != reasonLost && g.Reason != reasonNoPredecessor {
			level = slog.LevelError // unrecoverable
		}
		l.LogAttrs(logCtx, level, "sequence gap detected",
			slog.String("component", "client"), slog.String("stream", c.name),
			slog.Uint64("from", g.From), slog.Uint64("to", g.To),
			slog.String("reason", g.Reason))
	}
	c.mu.Lock()
	fns := make([]func(Gap), len(c.gapListeners))
	copy(fns, c.gapListeners)
	c.mu.Unlock()
	for _, fn := range fns {
		fn(g)
	}
}

// reportUnrecoverable records a permanently lost range discovered at
// resume time: the server's replay window no longer covers it. Seqs in
// the range the client had already received are not counted; outstanding
// missing ones and never-seen ones are written off as lost.
func (c *Client) reportUnrecoverable(g Gap) {
	c.mu.Lock()
	c.gaps = append(c.gaps, g)
	for s := range c.missing {
		if s >= g.From && s <= g.To {
			delete(c.missing, s)
			c.lost++
		}
	}
	if g.To > c.lastSeq {
		from := g.From
		if from <= c.lastSeq {
			from = c.lastSeq + 1
		}
		c.lost += g.To - from + 1
		c.lastSeq = g.To
	}
	c.setDegradedLocked(fmt.Sprintf("degraded: %s", g))
	c.mu.Unlock()
	c.notifyGap(g)
}

// resumePos is the position a resumed registration should replay from:
// the highest sequence number below which nothing is outstanding. When
// gaps are pending this sits before them, so the server's replay heals
// them (duplicate suppression discards the overlap).
func (c *Client) resumePos() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	pos := c.lastSeq
	for s := range c.missing {
		if s-1 < pos {
			pos = s - 1
		}
	}
	return pos
}

// outstanding reports whether the client knows of fragments it has not
// received: pending gaps, or a handshake-advertised latest sequence it
// has not reached.
func (c *Client) outstanding() (missing int, behind uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latestSeen > c.lastSeq {
		behind = c.latestSeen - c.lastSeq
	}
	return len(c.missing), behind
}

// setBaseline anchors the expected next sequence number from a
// registration handshake: the replay will start at oldest, so anything
// skipped from there on is a detectable gap — including a dropped or
// reordered first frame, which an unanchored client would silently
// mistake for a late join.
func (c *Client) setBaseline(oldest uint64) {
	c.mu.Lock()
	c.baselined = true
	if oldest > 0 && oldest-1 > c.lastSeq {
		c.lastSeq = oldest - 1
	}
	c.mu.Unlock()
}

// noteReconnect bumps the reconnect counter (TCP transport).
func (c *Client) noteReconnect() {
	c.mu.Lock()
	c.reconnects++
	n := c.reconnects
	c.mu.Unlock()
	if l := c.log(); l != nil {
		l.LogAttrs(logCtx, slog.LevelInfo, "reconnected",
			slog.String("component", "client"), slog.String("stream", c.name),
			slog.Int64("reconnects", n))
	}
}

// Reconnect outcomes (the reconnect_outcome counter family).
const (
	outcomeReplay   = "replay"
	outcomeSnapshot = "snapshot_bootstrap"
	outcomeDegraded = "degraded"
)

// noteReconnectOutcome classifies a successful re-registration: served
// from the in-memory replay window, bridged from the server's durable
// log, or degraded by an unrecoverable gap.
func (c *Client) noteReconnectOutcome(outcome string) {
	c.mu.Lock()
	switch outcome {
	case outcomeReplay:
		c.reconnectReplay++
	case outcomeSnapshot:
		c.reconnectSnapshot++
	case outcomeDegraded:
		c.reconnectDegraded++
	}
	c.mu.Unlock()
	if l := c.log(); l != nil {
		level := slog.LevelInfo
		if outcome == outcomeDegraded {
			level = slog.LevelWarn
		}
		l.LogAttrs(logCtx, level, "reconnect outcome",
			slog.String("component", "client"), slog.String("stream", c.name),
			slog.String("outcome", outcome))
	}
}

// noteLatest records the server's latest sequence number as advertised in
// a registration handshake; it feeds the Lag estimate and the
// end-of-stream heal check.
func (c *Client) noteLatest(seq uint64) {
	c.mu.Lock()
	if seq > c.latestSeen {
		c.latestSeen = seq
	}
	c.mu.Unlock()
}

// LastSeq returns the highest sequence number applied so far.
func (c *Client) LastSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSeq
}

// Gaps returns the gaps detected so far, in detection order. Entries may
// have healed since; Stats().Missing and Stats().Lost hold the current
// balance.
func (c *Client) Gaps() []Gap {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Gap, len(c.gaps))
	copy(out, c.gaps)
	return out
}

// Degraded reports whether the client is currently missing fragments —
// permanently lost ones, or detected gaps that have not healed — and
// why. A degraded client's query results may be missing the lost
// fillers; consumers decide whether that is acceptable.
func (c *Client) Degraded() (reason string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degradedLocked()
}

func (c *Client) degradedLocked() (string, bool) {
	if c.lost > 0 {
		return c.degraded, true
	}
	if len(c.missing) > 0 {
		return fmt.Sprintf("degraded: %d fragments missing (may heal on replay)", len(c.missing)), true
	}
	return "", false
}

// Stats returns a snapshot of the client's receive counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClientStats{
		Received:          c.received,
		Duplicates:        c.duplicates,
		Replayed:          c.replayed,
		Gaps:              len(c.gaps),
		Missing:           len(c.missing),
		Lost:              c.lost,
		Reconnects:        c.reconnects,
		ReconnectReplay:   c.reconnectReplay,
		ReconnectSnapshot: c.reconnectSnapshot,
		ReconnectDegraded: c.reconnectDegraded,
		Errors:            c.errTotal,
		LastSeq:           c.lastSeq,
		Watermark:         c.watermark,
	}
	if c.latestSeen > c.lastSeq {
		st.Lag = c.latestSeen - c.lastSeq
	}
	st.Degraded, _ = c.degradedLocked()
	return st
}

// WatermarkLag returns the event-time distance between a server's and a
// client's watermark: how stale the client's view of the stream is, in
// validTime terms. Zero when the client has caught up (or when either
// side has not seen any fragment yet).
func WatermarkLag(s *Server, c *Client) time.Duration {
	sw, cw := s.Stats().Watermark, c.Stats().Watermark
	if sw.IsZero() || cw.IsZero() {
		return 0
	}
	return max(sw.Sub(cw), 0)
}

// Consume drains a subscription until it closes or the client is closed.
// It is typically run as a goroutine.
func (c *Client) Consume(sub *Subscription) {
	for {
		select {
		case f, ok := <-sub.C():
			if !ok {
				return
			}
			c.Apply(f)
		case <-c.done:
			sub.Cancel()
			return
		}
	}
}

// addErr records one skipped frame or fragment, forgetting the oldest
// kept error once maxKeptErrs are held.
func (c *Client) addErr(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errTotal++
	if len(c.errs) == maxKeptErrs {
		c.errs = append(c.errs[:0], c.errs[1:]...)
	}
	c.errs = append(c.errs, err)
}

// Errs returns the most recent ingestion errors, oldest first — at most
// maxKeptErrs of them; Stats().Errors counts them all.
func (c *Client) Errs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]error, len(c.errs))
	copy(out, c.errs)
	return out
}

// Close stops Consume loops and any transport goroutine feeding the
// client.
func (c *Client) Close() {
	c.closeOnce.Do(func() { close(c.done) })
}
