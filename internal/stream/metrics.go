package stream

import (
	"time"

	"xcql/internal/obs"
)

// RegisterMetrics publishes the server's counters into an obs.Registry as
// gauges named prefix_<counter> (e.g. "server_published"). Gauges read a
// fresh Stats snapshot at exposition time, so the registry always shows
// live values; registering the same prefix twice overwrites the gauges.
func (s *Server) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	snap := func(f func(ServerStats) int64) func() int64 {
		return func() int64 { return f(s.Stats()) }
	}
	r.Gauge(prefix+"_published", snap(func(st ServerStats) int64 { return int64(st.LatestSeq) }))
	r.Gauge(prefix+"_dropped", snap(func(st ServerStats) int64 { return st.Dropped }))
	r.Gauge(prefix+"_subscribers", snap(func(st ServerStats) int64 { return int64(st.Subscribers) }))
	r.Gauge(prefix+"_retained", snap(func(st ServerStats) int64 { return int64(st.Retained) }))
	r.Gauge(prefix+"_oldest_retained", snap(func(st ServerStats) int64 { return int64(st.OldestRetained) }))
	r.Gauge(prefix+"_latest_seq", snap(func(st ServerStats) int64 { return int64(st.LatestSeq) }))
	r.Gauge(prefix+"_resume_floor", snap(func(st ServerStats) int64 { return int64(st.ResumeFloor) }))
	r.Gauge(prefix+"_bootstraps", snap(func(st ServerStats) int64 { return st.Bootstraps }))
	r.Gauge(prefix+"_storage_errors", snap(func(st ServerStats) int64 { return st.StorageErrors }))
	r.Gauge(prefix+"_watermark_ns", snap(func(st ServerStats) int64 { return unixNanoOrZero(st.Watermark) }))
	r.Gauge(prefix+"_queue_depth", snap(func(st ServerStats) int64 { return int64(st.MaxQueueDepth) }))
}

// RegisterMetrics publishes the client's delivery counters into an
// obs.Registry as gauges named prefix_<counter>. The degraded flag is
// exposed as 0/1; the reason string stays on ClientStats.
func (c *Client) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	snap := func(f func(ClientStats) int64) func() int64 {
		return func() int64 { return f(c.Stats()) }
	}
	r.Gauge(prefix+"_received", snap(func(st ClientStats) int64 { return st.Received }))
	r.Gauge(prefix+"_duplicates", snap(func(st ClientStats) int64 { return st.Duplicates }))
	r.Gauge(prefix+"_replayed", snap(func(st ClientStats) int64 { return st.Replayed }))
	r.Gauge(prefix+"_gaps", snap(func(st ClientStats) int64 { return int64(st.Gaps) }))
	r.Gauge(prefix+"_missing", snap(func(st ClientStats) int64 { return int64(st.Missing) }))
	r.Gauge(prefix+"_lost", snap(func(st ClientStats) int64 { return int64(st.Lost) }))
	r.Gauge(prefix+"_reconnects", snap(func(st ClientStats) int64 { return st.Reconnects }))
	r.Gauge(prefix+"_reconnect_outcome_replay", snap(func(st ClientStats) int64 { return st.ReconnectReplay }))
	r.Gauge(prefix+"_reconnect_outcome_snapshot_bootstrap", snap(func(st ClientStats) int64 { return st.ReconnectSnapshot }))
	r.Gauge(prefix+"_reconnect_outcome_degraded", snap(func(st ClientStats) int64 { return st.ReconnectDegraded }))
	r.Gauge(prefix+"_errors", snap(func(st ClientStats) int64 { return st.Errors }))
	r.Gauge(prefix+"_last_seq", snap(func(st ClientStats) int64 { return int64(st.LastSeq) }))
	r.Gauge(prefix+"_lag", snap(func(st ClientStats) int64 { return int64(st.Lag) }))
	r.Gauge(prefix+"_degraded", snap(func(st ClientStats) int64 {
		if st.Degraded != "" {
			return 1
		}
		return 0
	}))
	r.Gauge(prefix+"_watermark_ns", snap(func(st ClientStats) int64 { return unixNanoOrZero(st.Watermark) }))
	c.delivery.Register(r, prefix+"_delivery")
}

// RegisterMetrics publishes the injector's fault counters into an
// obs.Registry as gauges named prefix_<counter>.
func (fi *FaultInjector) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	snap := func(f func(FaultStats) int64) func() int64 {
		return func() int64 { return f(fi.Stats()) }
	}
	r.Gauge(prefix+"_frames", snap(func(st FaultStats) int64 { return st.Frames }))
	r.Gauge(prefix+"_dropped", snap(func(st FaultStats) int64 { return st.Dropped }))
	r.Gauge(prefix+"_corrupted", snap(func(st FaultStats) int64 { return st.Corrupted }))
	r.Gauge(prefix+"_duplicated", snap(func(st FaultStats) int64 { return st.Duplicated }))
	r.Gauge(prefix+"_reordered", snap(func(st FaultStats) int64 { return st.Reordered }))
	r.Gauge(prefix+"_delayed", snap(func(st FaultStats) int64 { return st.Delayed }))
	r.Gauge(prefix+"_resets", snap(func(st FaultStats) int64 { return st.Resets }))
}

// unixNanoOrZero renders an event-time watermark as Unix nanoseconds,
// mapping the zero time (nothing observed yet) to 0 rather than the
// meaningless negative UnixNano of year 1.
func unixNanoOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}
