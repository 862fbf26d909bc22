package fragment

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// Compact wire codec: §4.1 notes that the Tag Structure "gives us the
// convenience of abbreviating the tag names with IDs for compressing
// stream data". This codec realizes that: element tags inside a filler
// payload are replaced by "t<tsid>" for tags known to the structure,
// resolvable unambiguously because the Tag Structure fixes each tag's
// position. Holes and unknown tags pass through unchanged.
//
// The codec is optional and purely a wire concern — stores always hold
// expanded payloads.

// CompactCodec rewrites fragments between expanded and abbreviated forms.
type CompactCodec struct {
	structure *tagstruct.Structure
}

// NewCompactCodec builds a codec over the structure.
func NewCompactCodec(s *tagstruct.Structure) *CompactCodec {
	return &CompactCodec{structure: s}
}

// Encode returns a copy of f whose payload tags are abbreviated.
func (c *CompactCodec) Encode(f *Fragment) *Fragment {
	tag := c.structure.ByID(f.TSID)
	payload := c.abbrev(f.Payload, tag)
	return New(f.FillerID, f.TSID, f.ValidTime, payload)
}

func (c *CompactCodec) abbrev(el *xmldom.Node, tag *tagstruct.Tag) *xmldom.Node {
	name := el.Name
	if tag != nil && tag.Name == el.Name {
		name = "t" + strconv.Itoa(tag.ID)
	}
	out := xmldom.NewElement(name)
	out.Attrs = append(out.Attrs, el.Attrs...)
	for _, ch := range el.Children {
		if ch.Type != xmldom.ElementNode {
			out.AppendChild(&xmldom.Node{Type: ch.Type, Name: ch.Name, Data: ch.Data})
			continue
		}
		if IsHole(ch) {
			out.AppendChild(ch.Clone())
			continue
		}
		var childTag *tagstruct.Tag
		if tag != nil {
			childTag = tag.Child(ch.Name)
		}
		out.AppendChild(c.abbrev(ch, childTag))
	}
	return out
}

// Decode expands an abbreviated fragment back to full tag names. It is
// the inverse of Encode; a fragment that was never abbreviated decodes to
// itself. Unknown t<id> abbreviations are an error (the client's
// structure is stale).
func (c *CompactCodec) Decode(f *Fragment) (*Fragment, error) {
	payload, err := c.expand(f.Payload)
	if err != nil {
		return nil, err
	}
	return New(f.FillerID, f.TSID, f.ValidTime, payload), nil
}

func (c *CompactCodec) expand(el *xmldom.Node) (*xmldom.Node, error) {
	name := el.Name
	if id, ok := abbrevID(name); ok {
		tag := c.structure.ByID(id)
		if tag == nil {
			return nil, fmt.Errorf("fragment: unknown tag abbreviation %q", name)
		}
		name = tag.Name
	}
	out := xmldom.NewElement(name)
	out.Attrs = append(out.Attrs, el.Attrs...)
	for _, ch := range el.Children {
		if ch.Type != xmldom.ElementNode {
			out.AppendChild(&xmldom.Node{Type: ch.Type, Name: ch.Name, Data: ch.Data})
			continue
		}
		ex, err := c.expand(ch)
		if err != nil {
			return nil, err
		}
		out.AppendChild(ex)
	}
	return out, nil
}

// abbrevID recognizes "t<digits>" abbreviations.
func abbrevID(name string) (int, bool) {
	if len(name) < 2 || name[0] != 't' {
		return 0, false
	}
	rest := name[1:]
	if strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' }) >= 0 {
		return 0, false
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return id, true
}

// Coalesce removes exact-duplicate versions from the store: fragments
// with the same filler id, tsid, validTime and byte-identical payload,
// of which only the first arrival is kept. Duplicates accumulate when a
// recovered durable log is re-ingested over frames that also arrived
// live, or when an at-least-once transport double-delivers past the
// stream client's dedup window. Coalescing is semantics-preserving for
// every as-of query: a duplicate annotates as a degenerate zero-width
// window, so removing it leaves which-version-is-current unchanged at
// every instant; after the pass GetFillers renders exactly as if the
// duplicates had never arrived.
//
// Generation semantics: the whole pass runs under the store's write
// lock — it builds a new index (Store.index, as Add does) and leaves the
// old one to the readers that hold its groups — and the ingest generation
// advances before the lock is released, but only when something was
// actually removed. A reader therefore sees each version group entirely
// before the coalesce or entirely after it, never half-compacted, and a
// cached lookup that resolved before it is stamped with the now-stale
// generation, so it can never be served again. A no-op pass leaves the
// generation untouched so it cannot gratuitously invalidate a warm cache.
//
// It returns the number of duplicate versions removed.
func (st *Store) Coalesce() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	seen := make(map[string]bool, len(st.log))
	var keptLog []*Fragment
	var keptWire []*xmldom.Node
	removed := 0
	for i, f := range st.log {
		key := strconv.Itoa(f.FillerID) + "|" + strconv.Itoa(f.TSID) + "|" +
			strconv.FormatInt(f.ValidTime.UnixNano(), 10) + "|" + f.Payload.String()
		if seen[key] {
			removed++
			continue
		}
		seen[key] = true
		keptLog = append(keptLog, f)
		if st.scan {
			keptWire = append(keptWire, st.wire[i])
		}
	}
	if removed == 0 {
		return 0
	}
	st.log = keptLog
	st.wire = keptWire
	st.byID = make(map[int][]*Fragment, len(st.byID))
	st.byTSID = make(map[int]tsidFillers, len(st.byTSID))
	for _, f := range keptLog {
		st.index(f)
	}
	st.gen.Add(1)
	return removed
}

// Compactor runs registered maintenance steps — in-memory coalescing,
// durable segment compaction, snapshotting — on one background
// goroutine at a fixed interval. Steps run sequentially in registration
// order; each step owns its own locking, so the compactor imposes no
// ordering constraints beyond "one step at a time".
type Compactor struct {
	interval time.Duration
	steps    []func() error
	onErr    func(error)

	mu      sync.Mutex
	runs    int64
	errs    int64
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewCompactor builds a compactor over the steps. interval <= 0 means
// "manual only": Start is a no-op and work happens via RunOnce.
func NewCompactor(interval time.Duration, steps ...func() error) *Compactor {
	return &Compactor{interval: interval, steps: steps}
}

// OnError installs an error observer (e.g. a structured logger); step
// errors never stop the compactor.
func (c *Compactor) OnError(fn func(error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onErr = fn
}

// Start launches the background loop. Starting twice is a no-op.
func (c *Compactor) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.interval <= 0 {
		return
	}
	c.started = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.loop(c.stop, c.done)
}

func (c *Compactor) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = c.RunOnce()
		}
	}
}

// Stop halts the background loop and waits for an in-flight run to
// finish. Stopping an unstarted compactor is a no-op.
func (c *Compactor) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	stop, done := c.stop, c.done
	c.started = false
	c.mu.Unlock()
	close(stop)
	<-done
}

// RunOnce runs every step now, returning the first error (all steps
// still run).
func (c *Compactor) RunOnce() error {
	c.mu.Lock()
	steps := c.steps
	onErr := c.onErr
	c.mu.Unlock()
	var first error
	for _, step := range steps {
		if err := step(); err != nil {
			if first == nil {
				first = err
			}
			if onErr != nil {
				onErr(err)
			}
			c.mu.Lock()
			c.errs++
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.runs++
	c.mu.Unlock()
	return first
}

// Runs reports completed runs and step errors so far.
func (c *Compactor) Runs() (runs, errs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs, c.errs
}

// CompactSavings reports the wire bytes of the fragments encoded plainly
// and abbreviated, for sizing decisions.
func CompactSavings(c *CompactCodec, frags []*Fragment) (plain, compact int) {
	for _, f := range frags {
		plain += len(f.String()) + 1
		compact += len(c.Encode(f).String()) + 1
	}
	return plain, compact
}
