package main

// Isolated probes: the workload's own fragments replayed through one
// layer's public functions, so a layer's cost is known apart from the
// pipeline it sits in. They run after the measured phases and feed
// per-layer metrics only.

import (
	"fmt"
	"os"
	"time"

	"xcql"
)

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

// probeSegstore times the recovery and maintenance operations on the
// directory a saturate phase left behind. It consumes the directory:
// compaction and the snapshot rewrite it.
func probeSegstore(dir string, rep *report) error {
	t := time.Now()
	seg, _, err := xcql.OpenSegStore(dir, xcql.SegStoreOptions{})
	if err != nil {
		return fmt.Errorf("probe open: %w", err)
	}
	rep.set("segstore.open_ms", msSince(t))
	t = time.Now()
	if _, err := seg.ReadSince(0); err != nil {
		seg.Close()
		return fmt.Errorf("probe read-since: %w", err)
	}
	rep.set("segstore.read_since_ms", msSince(t))
	t = time.Now()
	if _, err := seg.Compact(); err != nil {
		seg.Close()
		return fmt.Errorf("probe compact: %w", err)
	}
	rep.set("segstore.compact_ms", msSince(t))
	t = time.Now()
	if _, err := seg.Snapshot(); err != nil {
		seg.Close()
		return fmt.Errorf("probe snapshot: %w", err)
	}
	rep.set("segstore.snapshot_ms", msSince(t))
	if err := seg.Close(); err != nil {
		return err
	}
	t = time.Now()
	seg, _, err = xcql.OpenSegStore(dir, xcql.SegStoreOptions{})
	if err != nil {
		return fmt.Errorf("probe open after snapshot: %w", err)
	}
	rep.set("segstore.open_after_snapshot_ms", msSince(t))
	return seg.Close()
}

// probeSegstoreReplay is the segstore layer as a workload without a log
// would meet it: the workload's own fragments appended one by one, in
// publish order and with the default fsync per append, to a fresh store in
// a temporary directory, which probeSegstore then reads back.
func probeSegstoreReplay(frags []*xcql.Fragment, rep *report) error {
	dir, err := os.MkdirTemp("", "xcql-e2e-seg-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	seg, _, err := xcql.OpenSegStore(dir, xcql.SegStoreOptions{})
	if err != nil {
		return fmt.Errorf("probe open: %w", err)
	}
	appendUs := make([]float64, len(frags))
	var wireBytes int64
	for i, f := range frags {
		f = f.WithSeq(uint64(i + 1))
		wireBytes += int64(len(f.String()))
		t := time.Now()
		if err := seg.Append(f); err != nil {
			seg.Close()
			return fmt.Errorf("probe append: %w", err)
		}
		appendUs[i] = usSince(t)
	}
	stats := seg.Stats()
	if err := seg.Close(); err != nil {
		return err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	au := summarize(appendUs)
	rep.set("segstore.append_us_p50", au.Median)
	rep.set("segstore.append_us_p99", au.P99)
	rep.set("segstore.fsyncs_per_frame", float64(stats.Fsyncs)/float64(stats.Appends))
	rep.set("segstore.bytes_per_frame", float64(disk)/float64(stats.Appends))
	rep.set("segstore.disk_amp", float64(disk)/float64(wireBytes))
	return probeSegstore(dir, rep)
}

// probeFragments replays frags through the wire codec, the XML parser
// and serializer and a fresh store, then measures what the first QaC++
// read after a write costs over its warm repeat on that store.
func probeFragments(structure *xcql.TagStructure, frags []*xcql.Fragment, stream, query string, at time.Time, rep *report) error {
	var wireBytes, payloadBytes int
	wire := make([]string, len(frags))
	t := time.Now()
	for i, f := range frags {
		wire[i] = f.String()
	}
	rep.set("fragment.encode_us", usSince(t)/float64(len(frags)))
	t = time.Now()
	for _, w := range wire {
		if _, err := xcql.ParseFragment(w); err != nil {
			return fmt.Errorf("probe decode: %w", err)
		}
		wireBytes += len(w)
	}
	rep.set("fragment.decode_us", usSince(t)/float64(len(frags)))
	rep.set("fragment.wire_bytes_per_frame", float64(wireBytes)/float64(len(frags)))

	payloads := make([]string, len(frags))
	t = time.Now()
	for i, f := range frags {
		payloads[i] = f.Payload.String()
		payloadBytes += len(payloads[i])
	}
	kb := float64(payloadBytes) / 1024
	rep.set("xmldom.serialize_us_per_kb", usSince(t)/kb)
	t = time.Now()
	for _, s := range payloads {
		if _, err := xcql.ParseDocument(s); err != nil {
			return fmt.Errorf("probe parse: %w", err)
		}
	}
	rep.set("xmldom.parse_us_per_kb", usSince(t)/kb)

	eng := xcql.NewEngine()
	store := eng.AddEmptyStream(stream, structure)
	addUs := make([]float64, len(frags))
	last := len(frags) - 1
	for i, f := range frags[:last] {
		t = time.Now()
		if err := store.Add(f); err != nil {
			return fmt.Errorf("probe store add: %w", err)
		}
		addUs[i] = usSince(t)
	}
	q, err := eng.Compile(query, xcql.QaCPlusPlus)
	if err != nil {
		return err
	}
	if _, err := q.Eval(at); err != nil { // builds the label index for this generation
		return err
	}
	t = time.Now()
	if err := store.Add(frags[last]); err != nil {
		return fmt.Errorf("probe store add: %w", err)
	}
	addUs[last] = usSince(t)
	t = time.Now()
	if _, err := q.Eval(at); err != nil {
		return err
	}
	first := msSince(t)
	t = time.Now()
	if _, err := q.Eval(at); err != nil {
		return err
	}
	rep.set("fragment.first_read_after_write_ms", first-msSince(t))
	rep.set("fragment.store_add_us_p50", median(addUs))
	rep.set("fragment.store_add_us_last_decile", median(addUs[len(addUs)-len(addUs)/10:]))
	return nil
}
