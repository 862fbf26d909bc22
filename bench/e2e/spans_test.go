package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"sticking out", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside", []span{{Start: 10, End: 90}, {Start: 210, End: 300}}, 100},
		{"covering", []span{{Start: 0, End: 1000}}, 0},
		{"unordered", []span{{Start: 160, End: 180}, {Start: 100, End: 130}, {Start: 120, End: 165}}, 20},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestShareTable(t *testing.T) {
	// one op of 100: a publish of 40 that holds an append of 30, a queue
	// wait of 50 and an apply of 10
	spans := []span{
		{Name: "loadgen.event", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "stream.publish", Op: 0, Parent: 0, Start: 0, End: 40},
		{Name: "segstore.append", Op: 0, Parent: 1, Start: 5, End: 35},
		{Name: "stream.queue", Op: 0, Parent: 0, Start: 40, End: 90},
		{Name: "registry.apply", Op: 0, Parent: 0, Start: 90, End: 100},
	}
	rows := map[string]layerShare{}
	for _, r := range shareTable(spans) {
		rows[r.Name] = r
	}
	if got := rows["stream.publish"].SelfNs; got != 10 {
		t.Errorf("publish self = %d, want 10 (40 minus its append child)", got)
	}
	if got := rows["loadgen.event"].SelfNs; got != 0 {
		t.Errorf("event self = %d, want 0 (children cover it)", got)
	}
	if got := rows["stream.queue"].OfOpTime; got != 0.5 {
		t.Errorf("queue share of op time = %v, want 0.5", got)
	}
	// busy time leaves the wait out: append 30, publish 10, apply 10
	if got := rows["segstore.append"].OfBusy; got != 0.6 {
		t.Errorf("append share of busy = %v, want 0.6", got)
	}
	if got := rows["stream.queue"].OfBusy; got != 0 {
		t.Errorf("queue share of busy = %v, want 0: a wait is not work", got)
	}
}

func TestWriteTraceFile(t *testing.T) {
	dir := t.TempDir()
	path, err := writeTraceFile(dir, traceFile{Workload: "w", Seed: 9, Spans: []span{{Name: "a", Parent: -1, End: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "w" || back.Seed != 9 || len(back.Spans) != 1 || back.Spans[0].End != 5 {
		t.Errorf("trace file did not round-trip: %+v", back)
	}
}
