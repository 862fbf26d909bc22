package registry

import "xcql/internal/obs"

// RegisterMetrics publishes the registry's sharing counters into an
// obs.Registry as gauges named prefix_<counter> (e.g.
// "registry_shared_evals"). Gauges read a fresh Stats snapshot at
// exposition time, so /metricsz always shows live values. The headline
// pair is shared_evals vs shared_saved: their ratio is the fan-in the
// sharing layer achieves — with K queries sharing one unit,
// shared_saved grows like (K-1)× shared_evals.
func (r *Registry) RegisterMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	snap := func(f func(Stats) int64) func() int64 {
		return func() int64 { return f(r.Stats()) }
	}
	reg.Gauge(prefix+"_registrations", snap(func(st Stats) int64 { return int64(st.Registrations) }))
	reg.Gauge(prefix+"_groups", snap(func(st Stats) int64 { return int64(st.Groups) }))
	reg.Gauge(prefix+"_applies", snap(func(st Stats) int64 { return st.Applies }))
	reg.Gauge(prefix+"_shared_evals", snap(func(st Stats) int64 { return st.SharedEvals }))
	reg.Gauge(prefix+"_shared_saved", snap(func(st Stats) int64 { return st.SharedSaved }))
	reg.Gauge(prefix+"_fanout", snap(func(st Stats) int64 { return st.Fanout }))
	reg.Gauge(prefix+"_overloads", snap(func(st Stats) int64 { return st.Overloads }))
	reg.Gauge(prefix+"_backpressure_drops", snap(func(st Stats) int64 { return st.BackpressureDrops }))
	reg.Gauge(prefix+"_reseeds", snap(func(st Stats) int64 { return st.Reseeds }))
}
