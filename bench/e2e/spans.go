package main

// The harness's own spans: recorded around the calls into each layer,
// kept in memory during the traced phase, written out when it ends.
// Nothing here reaches into the program; the interior spans the program
// already emits are read back from its flight recorder and appended.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// its id; Parent is the index of the causing span in the same slice, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	// Start and End are nanoseconds since the phase began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may stick out of
// the parent; only the union of their intervals clipped to the parent
// counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			covered += v.b - v.a
		} else {
			covered += v.b - end
		}
		end = v.b
	}
	return parent.dur() - covered
}

// layerShare is one row of the share table.
type layerShare struct {
	Name  string
	Count int
	// SelfNs is the summed self time of the row's spans.
	SelfNs int64
	// OfOpTime is SelfNs over the summed duration of root spans: where an
	// op's latency went, waits included.
	OfOpTime float64
	// OfBusy is SelfNs over the summed self time of the rows that do work
	// (every row but the waits): which layer the processors were in.
	OfBusy float64
}

// waitSpans name the spans that measure waiting for a stage, not work in
// it; they are left out of the busy shares.
var waitSpans = map[string]bool{"stream.queue": true, "registry.queue": true, "loadgen.event": true}

// shareTable aggregates self time by span name. The root's own self time
// (the part of an op no child covers) is reported under its name.
func shareTable(spans []span) []layerShare {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*layerShare{}
	var rootNs, busyNs int64
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerShare{Name: s.Name}
			rows[s.Name] = r
		}
		self := selfTime(s, kids[i])
		r.Count++
		r.SelfNs += self
		if s.Parent < 0 {
			rootNs += s.dur()
		}
		if !waitSpans[s.Name] {
			busyNs += self
		}
	}
	out := make([]layerShare, 0, len(rows))
	for _, r := range rows {
		if rootNs > 0 {
			r.OfOpTime = float64(r.SelfNs) / float64(rootNs)
		}
		if busyNs > 0 && !waitSpans[r.Name] {
			r.OfBusy = float64(r.SelfNs) / float64(busyNs)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

func formatShareTable(rows []layerShare) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-18s %9s %12s %10s %9s\n", "span", "count", "self ms", "of op time", "of busy")
	for _, r := range rows {
		busy := "     wait"
		if !waitSpans[r.Name] {
			busy = fmt.Sprintf("%8.1f%%", 100*r.OfBusy)
		}
		fmt.Fprintf(&b, "  %-18s %9d %12.1f %9.1f%% %s\n",
			r.Name, r.Count, float64(r.SelfNs)/1e6, 100*r.OfOpTime, busy)
	}
	return b.String()
}

// interiorSpan is one span read back from the program's flight recorder.
type interiorSpan struct {
	Trace  string `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Seq    uint64 `json:"seq,omitempty"`
	Reg    int64  `json:"reg,omitempty"`
	// Start is nanoseconds since the phase began, like span.Start.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
}

// traceFile is what bench/out/<workload>.trace.json holds.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Started  time.Time `json:"started"`
	Spans    []span    `json:"spans"`
	// Interior holds the program's own spans for the traces its bounded
	// recorder still had when the phase ended.
	Interior []interiorSpan `json:"interior"`
}

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
