package segstore

import "xcql/internal/obs"

// RegisterMetrics publishes the store's counters into an obs.Registry as
// gauges named prefix_<counter> (e.g. "segstore_segments"). Gauges read
// a fresh Stats snapshot at exposition time, matching the stream
// package's convention.
func (s *Store) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	snap := func(f func(Stats) int64) func() int64 {
		return func() int64 { return f(s.Stats()) }
	}
	r.Gauge(prefix+"_segments", snap(func(st Stats) int64 { return int64(st.Segments) }))
	r.Gauge(prefix+"_segment_bytes", snap(func(st Stats) int64 { return st.SegmentBytes }))
	r.Gauge(prefix+"_frames", snap(func(st Stats) int64 { return int64(st.Frames) }))
	r.Gauge(prefix+"_appends", snap(func(st Stats) int64 { return st.Appends }))
	r.Gauge(prefix+"_append_errors", snap(func(st Stats) int64 { return st.AppendErrors }))
	r.Gauge(prefix+"_fsyncs", snap(func(st Stats) int64 { return st.Fsyncs }))
	r.Gauge(prefix+"_snapshots", snap(func(st Stats) int64 { return st.Snapshots }))
	r.Gauge(prefix+"_snapshot_gen", snap(func(st Stats) int64 { return int64(st.SnapshotGen) }))
	r.Gauge(prefix+"_snapshot_frames", snap(func(st Stats) int64 { return int64(st.SnapshotFrames) }))
	r.Gauge(prefix+"_quarantined_frames", snap(func(st Stats) int64 { return st.QuarantinedFrames }))
	r.Gauge(prefix+"_recovery_ns", snap(func(st Stats) int64 { return int64(st.Recovery.Duration) }))
	r.Gauge(prefix+"_recovery_frames", snap(func(st Stats) int64 { return int64(st.Recovery.Frames) }))
	r.Gauge(prefix+"_recovery_torn_bytes", snap(func(st Stats) int64 { return st.Recovery.TornBytes }))
	r.Gauge(prefix+"_recovery_quarantined_files", snap(func(st Stats) int64 { return int64(len(st.Recovery.QuarantinedFiles)) }))
	r.Gauge(prefix+"_recovery_salvaged_frames", snap(func(st Stats) int64 { return int64(st.Recovery.SalvagedFrames) }))
	r.Gauge(prefix+"_recovery_degraded", snap(func(st Stats) int64 {
		if st.Recovery.Degraded != "" {
			return 1
		}
		return 0
	}))
}
