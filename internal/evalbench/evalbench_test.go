package evalbench

import (
	"strings"
	"testing"
)

func TestBuildDataset(t *testing.T) {
	ds, err := Build(0.001, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Store.Scanning() {
		t.Fatal("scan dataset should use the scan store")
	}
	if ds.FileSize <= 0 || ds.FragSize <= ds.FileSize/2 || ds.Fragments < 10 {
		t.Fatalf("sizes: %+v", ds)
	}
	indexed, err := Build(0.001, false)
	if err != nil {
		t.Fatal(err)
	}
	if indexed.Store.Scanning() {
		t.Fatal("indexed dataset should not scan")
	}
}

func TestCellRunsEveryQueryAndMode(t *testing.T) {
	ds, err := Build(0.001, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		var counts []int
		for _, mode := range Modes {
			d, n, err := Cell(ds, q.Src, mode)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, mode, err)
			}
			if d <= 0 {
				t.Fatalf("%s/%s: non-positive duration", q.Name, mode)
			}
			counts = append(counts, n)
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Fatalf("%s: plans disagree on result count: %v", q.Name, counts)
			}
		}
	}
}

func TestRunFigure4AndFormat(t *testing.T) {
	rows, err := RunFigure4([]float64{0.001}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Queries())*len(Modes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Queries())*len(Modes))
	}
	table := FormatTable(rows)
	for _, want := range []string{"Query", "Q1", "Q2", "Q5", "QaC+", "QaC", "CaQ", "Run Time"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	summary := SpeedupSummary(rows)
	if !strings.Contains(summary, "QaC/QaC+") || !strings.Contains(summary, "CaQ/QaC") || !strings.Contains(summary, "x") {
		t.Fatalf("summary:\n%s", summary)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int]string{
		512:     "512b",
		2048:    "2.0Kb",
		6 << 20: "6.0Mb",
		1536:    "1.5Kb",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
