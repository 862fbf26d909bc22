package main

// The metric catalogue: every name the benchmark prints, with its unit
// and direction, and for end-to-end metrics the bound by which a later
// change may worsen it. BENCHMARK.json at the repository root carries the
// same lists; a self-test keeps the two equal.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The bounded metrics are the ones that repeat: the three memory readings
// to a percent, and the set-up time once it is taken at nominal host speed.
// Throughput, latency and drift are measured and printed by every run, as
// loadgen.* below, without a bound: on this host they move by a quarter and
// more from one ten-minute stretch to the next with no change to the code
// (README, "Steadiness"), and a bound of at most 25 % on them rejects the
// benchmark's own second run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"retained_heap_mb", "MB", "lower", 0.05},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayerMetrics are the per-layer metrics of the result line: the ones
// every workload measures, because the driver asks every workload for every
// one of them and refuses a time that reads the same on every run — which a
// 0 for "this workload has no such layer" would. On the ad-hoc workloads
// the segstore rows come from a replay of their own fragments through a
// fresh store (probeSegstoreReplay); on the streaming ones from the path.
var perLayerMetrics = []metricDef{
	layer("loadgen.throughput_ops_s", "ops/s", "higher"),
	layer("loadgen.latency_p50_ms", "ms", "lower"),
	layer("loadgen.latency_mean_ms", "ms", "lower"),
	layer("loadgen.latency_p99_ms", "ms", "lower"),
	layer("loadgen.drift_ratio", "ratio", "lower"),
	layer("loadgen.setup_raw_s", "s", "lower"),
	layer("loadgen.host_slowdown", "ratio", "lower"),
	layer("loadgen.ops", "count", "higher"),

	layer("xmldom.parse_us_per_kb", "us/KB", "lower"),
	layer("xmldom.serialize_us_per_kb", "us/KB", "lower"),
	layer("xmldom.nodes_per_op", "count", "lower"),

	layer("fragment.encode_us", "us", "lower"),
	layer("fragment.decode_us", "us", "lower"),
	layer("fragment.store_add_us_p50", "us", "lower"),
	layer("fragment.store_add_us_last_decile", "us", "lower"),
	layer("fragment.wire_bytes_per_frame", "B", "lower"),
	layer("fragment.label_lookups_per_op", "count", "lower"),
	layer("fragment.first_read_after_write_ms", "ms", "lower"),

	layer("segstore.append_us_p50", "us", "lower"),
	layer("segstore.append_us_p99", "us", "lower"),
	layer("segstore.fsyncs_per_frame", "count", "lower"),
	layer("segstore.bytes_per_frame", "B", "lower"),
	layer("segstore.disk_amp", "ratio", "lower"),
	layer("segstore.open_ms", "ms", "lower"),
	layer("segstore.read_since_ms", "ms", "lower"),
	layer("segstore.snapshot_ms", "ms", "lower"),
	layer("segstore.compact_ms", "ms", "lower"),
	layer("segstore.open_after_snapshot_ms", "ms", "lower"),

	layer("xcql.fillers_per_op", "count", "lower"),
	layer("xcql.holes_per_op", "count", "lower"),
	layer("xcql.tsid_lookups_per_op", "count", "lower"),
	layer("temporal.bytes_materialized_per_op", "B", "lower"),
	layer("xq.items_per_op", "count", "lower"),

	layer("obs.trace_overhead_share", "ratio", "lower"),
	layer("obs.spans_per_op", "count", "lower"),
}

// timingMetrics is how many of perLayerMetrics, from the top, are the
// load generator's timings; an end-to-end run prints those under its
// bounded metrics.
const timingMetrics = 7

// reportOnlyMetrics are the per-layer metrics of the layers only some
// workloads have. A traced run prints them with the others; they are not
// in BENCHMARK.json and not on the result line.
var reportOnlyMetrics = []metricDef{
	layer("loadgen.late_us_p99", "us", "lower"),
	layer("loadgen.failed_share", "ratio", "lower"),

	layer("segstore.fsync_share", "ratio", "lower"),
	layer("segstore.restart_ready_s", "s", "lower"),

	layer("stream.publish_us_p50", "us", "lower"),
	layer("stream.publish_self_us_p50", "us", "lower"),
	layer("stream.transit_us_p50", "us", "lower"),
	layer("stream.transit_us_p99", "us", "lower"),
	layer("stream.queue_us_p50", "us", "lower"),
	layer("stream.backlog_max", "count", "lower"),
	layer("stream.sub_drops", "count", "lower"),
	layer("stream.gaps", "count", "lower"),
	layer("stream.reconnects", "count", "lower"),

	layer("registry.apply_us_p50", "us", "lower"),
	layer("registry.apply_us_p99", "us", "lower"),
	layer("registry.apply_us_q1", "us", "lower"),
	layer("registry.apply_us_q4", "us", "lower"),
	layer("registry.apply_busy_share", "ratio", "lower"),
	layer("registry.shared_saved_ratio", "ratio", "higher"),
	layer("registry.fanout_per_apply", "count", "lower"),
	layer("registry.backpressure_drops", "count", "lower"),
	layer("registry.reseeds", "count", "lower"),
	layer("registry.deliver_us_p50", "us", "lower"),
	layer("registry.wire_bytes_per_delivery", "B", "lower"),
	layer("registry.api_overhead_us", "us", "lower"),

	layer("inc.handlers_per_arrival", "count", "lower"),
	layer("inc.buffer_hwm_kb", "KB", "lower"),
	layer("inc.buffered_items", "count", "lower"),
	layer("inc.recompute_us_p50", "us", "lower"),

	layer("xcql.compile_us", "us", "lower"),
	layer("xcql.eval_ms.Q1.caq", "ms", "lower"),
	layer("xcql.eval_ms.Q1.qac", "ms", "lower"),
	layer("xcql.eval_ms.Q1.qacp", "ms", "lower"),
	layer("xcql.eval_ms.Q1.qacpp", "ms", "lower"),
	layer("xcql.eval_ms.Q2.caq", "ms", "lower"),
	layer("xcql.eval_ms.Q2.qac", "ms", "lower"),
	layer("xcql.eval_ms.Q2.qacp", "ms", "lower"),
	layer("xcql.eval_ms.Q2.qacpp", "ms", "lower"),
	layer("xcql.eval_ms.Q5.caq", "ms", "lower"),
	layer("xcql.eval_ms.Q5.qac", "ms", "lower"),
	layer("xcql.eval_ms.Q5.qacp", "ms", "lower"),
	layer("xcql.eval_ms.Q5.qacpp", "ms", "lower"),
	layer("xcql.eval_ms.QD.caq", "ms", "lower"),
	layer("xcql.eval_ms.QD.qac", "ms", "lower"),
	layer("xcql.eval_ms.QD.qacp", "ms", "lower"),
	layer("xcql.eval_ms.QD.qacpp", "ms", "lower"),
	layer("xcql.eval_ms.Q1.qacp.par4", "ms", "lower"),
	layer("xcql.eval_ms.Q1.qacp.warm-cache", "ms", "lower"),
	layer("xcql.eval_ms.QD.qacp.par4", "ms", "lower"),
	layer("xcql.eval_ms.QD.qacp.warm-cache", "ms", "lower"),
	layer("xcql.exec_share", "ratio", "lower"),
	layer("temporal.materialize_share", "ratio", "lower"),
}

// workloadDef names a workload and says why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"ingest-fanout", "credit stream through fsync-per-append segstore, TCP and a 64-way registry fan-out; evaluation is cheap, so durability, the wire codec and fan-out do the work"},
	{"standing-window", "the paper's sliding-window fraud query as a standing query; evaluation state grows with the store, so bounded-state and allocation work must show here and segstore work must not"},
	{"adhoc-history", "Figure 4's queries through POST /v1/eval on a quiescent XMark store with every memo warm; the stream, segstore and incremental layers do nothing"},
	{"adhoc-under-ingest", "the same reads with a trickle of writes between them, over TCP into a client store; every Add invalidates the label index and filler cache, so its gap to adhoc-history is the invalidation cost"},
}

// benchmarkFile is BENCHMARK.json: the command the driver runs, the
// directories the benchmark owns, and the catalogue above. A per-layer
// metric has no bound, and metricDef leaves a zero bound out.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runSeconds is the phase length the workload sizes were frozen at.
const runSeconds = 10

func catalogue() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
}
