package xcql_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// Stored payloads are immutable and structurally shared: every read —
// get_fillers, the tsid index, projections, hole filling,
// constructors, the wire codec — hands out the store's own nodes. These
// tests are the guard on that contract: a fingerprint of every stored
// payload (its serialization and the identity of every node in it) taken
// before a workload must still hold after it. The differential harnesses
// take it around their whole matrices (see runInstance and
// runIncrementalInstance); the tests below cover the maintenance paths
// and, under -race, concurrent readers beside a writer.

// payloadPrint is the fingerprint of one stored payload.
type payloadPrint struct {
	frag    *xcql.Fragment
	payload *xmldom.Node
	serial  string
	nodes   []*xmldom.Node // every node of the payload, preorder
}

func fingerprintPayloads(frags []*xcql.Fragment) []payloadPrint {
	prints := make([]payloadPrint, len(frags))
	for i, f := range frags {
		p := payloadPrint{frag: f, payload: f.Payload, serial: f.Payload.String()}
		f.Payload.Walk(func(n *xmldom.Node) bool {
			p.nodes = append(p.nodes, n)
			return true
		})
		prints[i] = p
	}
	return prints
}

// checkPayloads fails the test when any fingerprinted payload changed:
// another tree under the fragment, different bytes, or a child list that
// no longer holds the same nodes in the same order.
func checkPayloads(t *testing.T, prints []payloadPrint, label string) {
	t.Helper()
	for _, p := range prints {
		if p.frag.Payload != p.payload {
			t.Fatalf("%s: filler %d: payload replaced", label, p.frag.FillerID)
		}
		if got := p.payload.String(); got != p.serial {
			t.Fatalf("%s: filler %d: stored payload changed\nwas: %s\nnow: %s",
				label, p.frag.FillerID, harnessTruncate(p.serial), harnessTruncate(got))
		}
		i := 0
		same := true
		p.payload.Walk(func(n *xmldom.Node) bool {
			same = same && i < len(p.nodes) && p.nodes[i] == n
			i++
			return same
		})
		if !same || i != len(p.nodes) {
			t.Fatalf("%s: filler %d: stored payload's nodes were re-linked", label, p.frag.FillerID)
		}
	}
}

// TestPayloadsSurviveMaintenance: logging each fragment before storing it
// (the wire codec serializes the shared payload), snapshotting and a
// second snapshot replacing the first leave every stored payload as it
// was.
func TestPayloadsSurviveMaintenance(t *testing.T) {
	ins, err := genstore.Generate(genstore.Profile{Seed: 12, Reorder: true, Duplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	prints := fingerprintPayloads(ins.Fragments)
	seg, _, err := xcql.OpenSegStore(t.TempDir(), xcql.SegStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	st := fragment.NewStore(ins.Structure)
	for _, f := range ins.Fragments {
		if err := seg.Append(f); err != nil {
			t.Fatal(err)
		}
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	checkPayloads(t, prints, "after write-ahead ingest")
	for range 2 {
		if _, err := seg.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	checkPayloads(t, prints, "after two snapshots")
	// reads after the maintenance passes see the same nodes
	e := xcql.NewEngine()
	e.RegisterStore("s", st)
	for _, mode := range harnessModes {
		for _, query := range ins.Queries {
			if _, err := e.MustCompile(query.Src, mode).Eval(ins.Instants[len(ins.Instants)-1]); err != nil {
				t.Fatalf("%s/%s: %v", mode, query.Name, err)
			}
		}
	}
	checkPayloads(t, prints, "after post-maintenance reads")
}

// TestSharedNodesUnderConcurrentPlans runs all three plans concurrently
// against ONE store while a writer keeps adding versions. Every evaluation hands out the store's
// own nodes, so under -race any write to a shared node (a parent link, an
// in-place splice, a stamped attribute) is a reported data race; the
// fingerprint check catches what a lucky schedule might hide. A query that
// only navigates through what it reads joins the generated ones: its reads
// hand out the stored payloads themselves as their tops (tops=bare).
func TestSharedNodesUnderConcurrentPlans(t *testing.T) {
	ins, err := genstore.Generate(genstore.Profile{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	queries := append(slices.Clone(ins.Queries), navigationQuery(t, ins.Structure))
	// the first half is the standing store, the second half arrives while
	// the readers run; the root filler is first, so CaQ always has a view
	half := len(ins.Fragments) / 2
	if half == 0 {
		t.Fatal("generated history too small")
	}
	prints := fingerprintPayloads(ins.Fragments)
	st := fragment.NewStore(ins.Structure)
	if err := st.AddAll(ins.Fragments[:half]); err != nil {
		t.Fatal(err)
	}
	at := ins.Instants[len(ins.Instants)-1]
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	var readers sync.WaitGroup
	errs := make(chan error, len(harnessModes)+1)
	// readers announce each finished query; the writer adds one fragment
	// per announcement, so the writes land between and beside the reads
	// for as long as any reader runs
	tick := make(chan struct{})
	e := xcql.NewEngine()
	e.RegisterStore("s", st)
	for _, mode := range harnessModes {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for r := 0; r < rounds; r++ {
				for _, query := range queries {
					q, err := e.Compile(query.Src, mode)
					if err != nil {
						errs <- fmt.Errorf("%s/%s: compile: %w", mode, query.Name, err)
						return
					}
					seq, err := q.Eval(at)
					if err != nil {
						errs <- fmt.Errorf("%s/%s: eval: %w", mode, query.Name, err)
						return
					}
					_ = xcql.FormatSequence(seq) // serialize: read every node handed out
					select {
					case tick <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	readersDone := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for _, f := range ins.Fragments[half:] {
			select {
			case <-tick:
			case <-readersDone:
			}
			if err := st.Add(f); err != nil {
				errs <- fmt.Errorf("add filler %d: %w", f.FillerID, err)
				return
			}
		}
	}()
	readers.Wait()
	close(readersDone)
	<-writerDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkPayloads(t, prints, "after concurrent plans beside a writer")
}

// navigationQuery is a query over s's first fragmented tag with a
// fragmented child that reads nothing of either but their text: under
// the fragment plans both of its reads are bare.
func navigationQuery(t *testing.T, s *tagstruct.Structure) genstore.Query {
	t.Helper()
	for _, p := range s.Tags() {
		for _, c := range p.Children {
			if !p.IsFragmented() || !c.IsFragmented() {
				continue
			}
			src := fmt.Sprintf(`for $x in stream("s")//%s return ($x/text(), $x/%s/text())`, p.Name, c.Name)
			e := xcql.NewEngine()
			e.RegisterStore("s", fragment.NewStore(s))
			for _, tgt := range e.MustCompile(src, xcql.QaC).Explain().Targets {
				if tgt.Op != "root" && !tgt.Bare {
					t.Fatalf("%s: the %s read is not bare", src, tgt.Tag)
				}
			}
			return genstore.Query{Name: "navigation-" + p.Name, Src: src}
		}
	}
	t.Fatal("the generated structure has no fragmented tag with a fragmented child")
	return genstore.Query{}
}
