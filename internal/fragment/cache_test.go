package fragment

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"xcql/internal/xmldom"
)

// cacheStore builds a store with one account filler (id 1) holding a
// creditLimit hole (id 2) whose versions arrive as the tests direct.
func cacheStore(t *testing.T) *Store {
	t.Helper()
	st := NewStore(creditStruct(t))
	root := xmldom.MustParseString(`<creditAccounts><hole id="1" tsid="2"/></creditAccounts>`).Root()
	if err := st.Add(New(RootFillerID, 1, ts("2003-01-01T00:00:00"), root)); err != nil {
		t.Fatal(err)
	}
	acct := xmldom.MustParseString(`<account><customer>John</customer><hole id="2" tsid="4"/></account>`).Root()
	if err := st.Add(New(1, 2, ts("2003-01-01T00:00:00"), acct)); err != nil {
		t.Fatal(err)
	}
	return st
}

func addLimit(t *testing.T, st *Store, vt, amount string) {
	t.Helper()
	el := xmldom.MustParseString(`<creditLimit>` + amount + `</creditLimit>`).Root()
	if err := st.Add(New(2, 4, ts(vt), el)); err != nil {
		t.Fatal(err)
	}
}

// resident reports whether the filler's entry holds a generation-fresh
// variant, without filling, promoting or counting.
func resident(c *Cache, st *Store, fid int) bool {
	return c.ResidentFillers(st, []int{fid}) == 1
}

func render(els []*xmldom.Node) string {
	s := ""
	for _, el := range els {
		s += el.String()
	}
	return s
}

// TestCacheHitMatchesStore: a hit must return exactly what the store
// would have returned, and count as a hit.
func TestCacheHitMatchesStore(t *testing.T) {
	st := cacheStore(t)
	addLimit(t, st, "2003-02-01T00:00:00", "2000")
	c := NewCache(8)
	at := ts("2003-06-01T00:00:00")
	want := render(st.GetFillers(2, at))
	els, hit := c.GetFillers(st, 2, at)
	if hit {
		t.Fatal("first probe hit an empty cache")
	}
	if render(els) != want {
		t.Fatalf("miss path wrong:\n%s\nwant\n%s", render(els), want)
	}
	els, hit = c.GetFillers(st, 2, at)
	if !hit {
		t.Fatal("second probe missed")
	}
	if render(els) != want {
		t.Fatalf("hit path wrong:\n%s\nwant\n%s", render(els), want)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCacheNeverServesStaleAfterIngest is the invalidation property
// test: whatever the probe/ingest interleaving, after a newer-validTime
// version of a cached filler arrives, the cache must never serve the
// pre-ingest subtree — every post-ingest read equals a fresh store read.
func TestCacheNeverServesStaleAfterIngest(t *testing.T) {
	for _, probes := range [][]string{
		{"2003-06-01T00:00:00"},
		{"2003-06-01T00:00:00", "2003-07-01T00:00:00"},
		{"2004-06-01T00:00:00", "2003-06-01T00:00:00", "2004-07-01T00:00:00"},
	} {
		st := cacheStore(t)
		addLimit(t, st, "2003-02-01T00:00:00", "2000")
		c := NewCache(8)
		for _, p := range probes {
			c.GetFillers(st, 2, ts(p)) // warm whatever windows these touch
		}
		// a newer version changes the deduced vtTo of the cached version
		// AND what later instants see
		addLimit(t, st, "2004-01-01T00:00:00", "5000")
		for _, p := range append(probes, "2004-06-01T00:00:00") {
			at := ts(p)
			want := render(st.GetFillers(2, at))
			got, _ := c.GetFillers(st, 2, at)
			if render(got) != want {
				t.Fatalf("probes %v at %s: stale subtree served\ngot  %s\nwant %s",
					probes, p, render(got), want)
			}
		}
	}
}

// TestCacheWindowServesMovingInstant: within one validity window a
// single cached variant must keep serving as the evaluation instant
// advances (the continuous-query case), and crossing a version boundary
// must resolve freshly.
func TestCacheWindowServesMovingInstant(t *testing.T) {
	st := cacheStore(t)
	addLimit(t, st, "2003-02-01T00:00:00", "2000")
	addLimit(t, st, "2004-01-01T00:00:00", "5000")
	c := NewCache(8)
	c.GetFillers(st, 2, ts("2003-03-01T00:00:00")) // fill the first window
	for i, p := range []string{"2003-04-01T00:00:00", "2003-08-01T00:00:00", "2003-12-31T23:59:59"} {
		if _, hit := c.GetFillers(st, 2, ts(p)); !hit {
			t.Fatalf("probe %d (%s) inside the cached window missed", i, p)
		}
	}
	// crossing into the second version's window must miss, then cache
	if _, hit := c.GetFillers(st, 2, ts("2004-02-01T00:00:00")); hit {
		t.Fatal("probe across the version boundary served the old window")
	}
	if _, hit := c.GetFillers(st, 2, ts("2004-03-01T00:00:00")); !hit {
		t.Fatal("second window did not cache")
	}
	want := render(st.GetFillers(2, ts("2004-03-01T00:00:00")))
	got, _ := c.GetFillers(st, 2, ts("2004-03-01T00:00:00"))
	if render(got) != want {
		t.Fatalf("second window wrong:\n%s\nwant\n%s", render(got), want)
	}
}

// TestCacheHitsAreZeroCopy: a hit hands out the very elements the miss
// produced, their children are the stored payload's own nodes, and a
// caller's append to the returned slice cannot reach the memoized one.
func TestCacheHitsAreZeroCopy(t *testing.T) {
	st := cacheStore(t)
	addLimit(t, st, "2003-02-01T00:00:00", "2000")
	c := NewCache(8)
	at := ts("2003-06-01T00:00:00")
	first, _ := c.GetFillers(st, 2, at)
	want := render(first)
	got, hit := c.GetFillers(st, 2, at)
	if !hit {
		t.Fatal("expected a hit")
	}
	if len(got) != len(first) || got[0] != first[0] {
		t.Fatal("hit did not hand out the memoized elements")
	}
	payload := st.Versions(2)[0].Payload
	if got[0].Children[0] != payload.Children[0] {
		t.Fatal("annotated element does not share the stored payload's children")
	}
	_ = append(got, xmldom.NewElement("intruder"))
	again, _ := c.GetFillers(st, 2, at)
	if render(again) != want {
		t.Fatalf("append through a hit reached the cache:\n%s\nwant\n%s", render(again), want)
	}
}

// TestCacheLRUEviction: filling past capacity evicts the least recently
// used entry, and touching an entry protects it.
func TestCacheLRUEviction(t *testing.T) {
	st := NewStore(creditStruct(t))
	root := xmldom.MustParseString(`<creditAccounts/>`).Root()
	if err := st.Add(New(RootFillerID, 1, ts("2003-01-01T00:00:00"), root)); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		el := xmldom.MustParseString(fmt.Sprintf(`<account>a%d</account>`, id)).Root()
		if err := st.Add(New(id, 2, ts("2003-01-01T00:00:00"), el)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(2)
	at := ts("2003-06-01T00:00:00")
	c.GetFillers(st, 1, at)
	c.GetFillers(st, 2, at)
	c.GetFillers(st, 1, at) // touch 1 so 2 is LRU
	c.GetFillers(st, 3, at) // evicts 2
	if !resident(c, st, 1) {
		t.Fatal("recently used entry was evicted")
	}
	if resident(c, st, 2) {
		t.Fatal("LRU entry survived past capacity")
	}
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2", c.Len())
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("Evictions=%d, want 1", s.Evictions)
	}
}

// TestCacheEvictedEntryNotResurrected: once evicted (or invalidated), an
// entry only comes back through a fresh store read — and frames the
// stream layer would drop (duplicates, stale reorders) never reach
// Store.Add, so they cannot advance the generation or re-validate
// anything. Here we verify the store side of that contract: re-reading
// after eviction reflects every ingest that happened in between.
func TestCacheEvictedEntryNotResurrected(t *testing.T) {
	st := cacheStore(t)
	addLimit(t, st, "2003-02-01T00:00:00", "2000")
	c := NewCache(1)
	at := ts("2003-06-01T00:00:00")
	c.GetFillers(st, 2, at)
	// evict filler 2 by filling the single slot with filler 1
	c.GetFillers(st, 1, at)
	if resident(c, st, 2) {
		t.Fatal("evicted entry still resident")
	}
	// the history moves on while the entry is out of the cache
	addLimit(t, st, "2003-05-01T00:00:00", "7000")
	want := render(st.GetFillers(2, at))
	got, hit := c.GetFillers(st, 2, at)
	if hit {
		t.Fatal("probe after eviction+ingest claimed a hit")
	}
	if render(got) != want {
		t.Fatalf("resurrected stale data:\n%s\nwant\n%s", render(got), want)
	}
}

// TestCacheGenerationInvalidation: any ingest anywhere in the store
// invalidates resident variants (generation stamping is store-wide, the
// safe direction), and the Invalidations counter records the discard.
func TestCacheGenerationInvalidation(t *testing.T) {
	st := cacheStore(t)
	addLimit(t, st, "2003-02-01T00:00:00", "2000")
	c := NewCache(8)
	at := ts("2003-06-01T00:00:00")
	c.GetFillers(st, 2, at)
	if !resident(c, st, 2) {
		t.Fatal("entry not resident after fill")
	}
	addLimit(t, st, "2004-01-01T00:00:00", "5000") // any Add bumps the generation
	if resident(c, st, 2) {
		t.Fatal("stale-generation variant still answers probes")
	}
	if _, hit := c.GetFillers(st, 2, at); hit {
		t.Fatal("stale-generation variant served a hit")
	}
	if s := c.Stats(); s.Invalidations == 0 {
		t.Fatal("invalidation not counted")
	}
}

// TestCacheBatchedLookup: GetFillersList must return exactly the
// store's concatenation whatever mix of hits and misses serves it, and
// misses must share one scan pass.
func TestCacheBatchedLookup(t *testing.T) {
	st := NewScanStore(creditStruct(t))
	root := xmldom.MustParseString(`<creditAccounts/>`).Root()
	if err := st.Add(New(RootFillerID, 1, ts("2003-01-01T00:00:00"), root)); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 3; id++ {
		el := xmldom.MustParseString(fmt.Sprintf(`<account>a%d</account>`, id)).Root()
		if err := st.Add(New(id, 2, ts("2003-01-01T00:00:00"), el)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(8)
	at := ts("2003-06-01T00:00:00")
	ids := []int{1, 2, 3}
	want := render(NewAccess(TSIDIndexAccess, Eval{At: at}).Fillers(st, ids, nil, Window{}))
	c.GetFillers(st, 2, at) // warm just one of the three
	slots, hits, misses, built := c.GetFillersList(st, ids, at)
	if render(slices.Concat(slots...)) != want {
		t.Fatalf("mixed batched lookup wrong:\n%s\nwant\n%s", render(slices.Concat(slots...)), want)
	}
	if hits != 1 || misses != 2 || built != 2 {
		t.Fatalf("hits=%d misses=%d built=%d, want 1/2/2", hits, misses, built)
	}
	// fully warm: nothing built, so no pass to charge
	slots, hits, misses, built = c.GetFillersList(st, ids, at)
	if render(slices.Concat(slots...)) != want || hits != 3 || misses != 0 || built != 0 {
		t.Fatalf("warm batched lookup: hits=%d misses=%d built=%d", hits, misses, built)
	}
}

// TestCacheTSIDLookup: the tsid-index path caches and invalidates like
// the filler path.
func TestCacheTSIDLookup(t *testing.T) {
	st := cacheStore(t)
	addLimit(t, st, "2003-02-01T00:00:00", "2000")
	c := NewCache(8)
	at := ts("2003-06-01T00:00:00")
	want := render(NewAccess(TSIDIndexAccess, Eval{At: at}).ByTSID(st, 4, nil, Window{}))
	els, hit := c.GetFillersByTSID(st, 4, at)
	if hit || render(els) != want {
		t.Fatalf("cold tsid lookup: hit=%v out=%s", hit, render(els))
	}
	els, hit = c.GetFillersByTSID(st, 4, at)
	if !hit || render(els) != want {
		t.Fatalf("warm tsid lookup: hit=%v out=%s", hit, render(els))
	}
	addLimit(t, st, "2004-01-01T00:00:00", "5000")
	want = render(NewAccess(TSIDIndexAccess, Eval{At: at}).ByTSID(st, 4, nil, Window{}))
	els, hit = c.GetFillersByTSID(st, 4, at)
	if hit {
		t.Fatal("tsid lookup served stale generation")
	}
	if render(els) != want {
		t.Fatalf("post-ingest tsid lookup wrong:\n%s\nwant\n%s", render(els), want)
	}
}

// TestCacheUsageAndResidency: the Explain probes — Usage,
// ResidentFillers, ResidentTSID — reflect residency and freshness
// without disturbing LRU order or counters.
func TestCacheUsageAndResidency(t *testing.T) {
	st := cacheStore(t)
	addLimit(t, st, "2003-02-01T00:00:00", "2000")
	c := NewCache(8)
	at := ts("2003-06-01T00:00:00")
	c.GetFillers(st, 1, at)
	c.GetFillers(st, 2, at)
	before := c.Stats()
	entries, valid := c.Usage(st)
	if entries != 2 || valid != 2 {
		t.Fatalf("Usage = %d/%d, want 2/2", entries, valid)
	}
	if n := c.ResidentFillers(st, []int{1, 2, 99}); n != 2 {
		t.Fatalf("ResidentFillers = %d, want 2", n)
	}
	if c.ResidentTSID(st, 4) {
		t.Fatal("tsid entry resident without a tsid fill")
	}
	addLimit(t, st, "2004-01-01T00:00:00", "5000")
	entries, valid = c.Usage(st)
	if entries != 2 || valid != 0 {
		t.Fatalf("post-ingest Usage = %d/%d, want 2/0", entries, valid)
	}
	if n := c.ResidentFillers(st, []int{1, 2}); n != 0 {
		t.Fatalf("post-ingest ResidentFillers = %d, want 0", n)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("probes moved counters: %+v -> %+v", before, after)
	}
}

// TestNilCacheFallsThrough: a nil *Cache is a valid no-op layer.
func TestNilCacheFallsThrough(t *testing.T) {
	st := cacheStore(t)
	addLimit(t, st, "2003-02-01T00:00:00", "2000")
	var c *Cache
	at := ts("2003-06-01T00:00:00")
	want := render(st.GetFillers(2, at))
	els, hit := c.GetFillers(st, 2, at)
	if hit || render(els) != want {
		t.Fatalf("nil cache GetFillers: hit=%v", hit)
	}
	slots, hits, misses, built := c.GetFillersList(st, []int{2}, at)
	if hits != 0 || misses != 1 || built != len(slots[0]) {
		t.Fatalf("nil cache GetFillersList: hits=%d misses=%d built=%d", hits, misses, built)
	}
	if _, hit := c.GetFillersByTSID(st, 4, at); hit {
		t.Fatal("nil cache tsid lookup hit")
	}
	if c.Len() != 0 || c.Capacity() != 0 || c.ResidentFillers(st, []int{2}) != 0 || c.ResidentTSID(st, 4) {
		t.Fatal("nil cache accessors not zero")
	}
}

// TestFromXMLIgnoresPublishedAt: the decode-side guard. A crafted frame
// must not be able to stamp PublishedAt — otherwise a peer could inject
// arbitrary delivery latencies into the client's histogram.
func TestFromXMLIgnoresPublishedAt(t *testing.T) {
	el := xmldom.MustParseString(
		`<filler id="7" tsid="4" validTime="2003-01-01T00:00:00" publishedAt="1999-01-01T00:00:00"><creditLimit>1</creditLimit></filler>`).Root()
	f, err := FromXML(el)
	if err != nil {
		t.Fatal(err)
	}
	if !f.PublishedAt.IsZero() {
		t.Fatalf("decoded PublishedAt = %v, want zero", f.PublishedAt)
	}
	// and the wire form never carries a publish stamp to begin with
	g := New(7, 4, ts("2003-01-01T00:00:00"), xmldom.MustParseString(`<creditLimit>1</creditLimit>`).Root())
	g.PublishedAt = time.Now()
	if _, ok := g.ToXML().Attr("publishedAt"); ok {
		t.Fatal("ToXML leaked a publish stamp onto the wire")
	}
	back, err := FromXML(g.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if !back.PublishedAt.IsZero() {
		t.Fatalf("round-tripped PublishedAt = %v, want zero", back.PublishedAt)
	}
}
