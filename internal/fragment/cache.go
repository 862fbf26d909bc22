package fragment

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"xcql/internal/xmldom"
)

// Cache is an LRU materialization cache over Store lookups: it memoizes
// the annotated subtrees that a lookup by filler id or by tsid produces,
// keyed by (store, access kind, id). Repeated
// and continuous queries that revisit the same holes skip the store pass
// — under the scan cost model that pass is a walk of the whole fragment
// log, so a hit removes the dominant Figure-4 cost term entirely.
//
// Each cached entry holds up to a few variants, one per as-of validity
// window: what a read of id returns at instant at is constant for every
// at in [validTime of the last visible version, validTime of the next
// version), so a variant learned at one evaluation instant keeps serving
// a continuous query whose instant advances inside that window.
//
// Invalidation is by store generation: every variant is stamped with
// Store.Generation() read BEFORE the resolving lookup, and a probe only
// serves variants whose stamp equals the store's current generation.
// Any ingest — even one racing the fill — makes the variant stale in
// the safe direction. Duplicate and reordered frames that the stream
// client drops never reach Store.Add, so they cannot re-validate or
// resurrect anything.
//
// Hits are zero-copy: the cache keeps the annotated top elements the
// store produced and hands the very same nodes to every probe. That is
// sound because nodes are immutable once shared (see xmldom) — a caller
// that wants to change a hit result rebuilds the nodes it changes.
//
// An Access reads through its cache only when it has one (Eval.Cache); a
// nil *Cache reports itself empty to its accessors (Capacity, Len, Stats,
// String, Usage), as an engine without a cache hands one out. A Cache is
// safe for concurrent use; one cache may serve many stores and many
// evaluations.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *cacheEntry
	byKey    map[cacheKey]*list.Element
	stats    CacheStats
}

// maxVariants bounds the as-of windows kept per entry; continuous
// queries touch a handful of adjacent windows, so a short list suffices
// and keeps the per-entry memory bound proportional to subtree size.
const maxVariants = 4

// cache access kinds.
const (
	kindFiller = iota // by hole id
	kindTSID          // by tag structure id
)

type cacheKey struct {
	store *Store
	kind  int
	id    int
}

type cacheEntry struct {
	key      cacheKey
	variants []*cacheVariant // newest last
}

// cacheVariant is one memoized resolution: the pristine annotated
// subtrees plus the store generation and as-of window they are valid for.
type cacheVariant struct {
	gen     uint64
	from    time.Time // valid for at >= from, when hasFrom
	to      time.Time // valid for at < to, when hasTo
	hasFrom bool
	hasTo   bool
	els     []*xmldom.Node
}

func (v *cacheVariant) covers(at time.Time) bool {
	if v.hasFrom && at.Before(v.from) {
		return false
	}
	if v.hasTo && !at.Before(v.to) {
		return false
	}
	return true
}

// CacheStats are a cache's cumulative counters.
type CacheStats struct {
	// Hits and Misses count probes served from memory vs resolved
	// against the store.
	Hits, Misses int64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions int64
	// Invalidations counts variants discarded because the store's
	// generation advanced past their stamp.
	Invalidations int64
}

// NewCache returns a cache bounded to capacity entries (distinct
// (store, kind, id) keys). capacity < 1 is clamped to 1.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[cacheKey]*list.Element),
	}
}

// Capacity returns the configured entry bound (0 on a nil cache).
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// String renders the counters on one line.
func (c *Cache) String() string {
	if c == nil {
		return "<no cache>"
	}
	s := c.Stats()
	return fmt.Sprintf("entries=%d/%d hits=%d misses=%d evictions=%d invalidations=%d",
		c.Len(), c.Capacity(), s.Hits, s.Misses, s.Evictions, s.Invalidations)
}

// cachedSlot is what a cached read finds of one key: its versions, and
// whether memory served them.
type cachedSlot struct {
	els []*xmldom.Node
	hit bool
}

// get is the one cached read: of the fillers ids, or, when tsid > 0, of
// the tsid's versions. slots[i] receives ids[i]'s versions — slots[0] the
// tsid's. A key with a variant that covers at is served from memory
// without touching the store; the keys missing share ONE lookup pass,
// preserving the batched cost shape that separates QaC+ from QaC, and fill
// the cache. It reports the hits, the misses and the tops the miss pass
// built (hits build none), for the caller to charge that pass.
func (c *Cache) get(st *Store, tsid int, ids []int, at time.Time, slots []cachedSlot) (hits, misses, built int) {
	kind, keys := kindFiller, ids
	tsids := [1]int{tsid}
	if tsid > 0 {
		kind, keys = kindTSID, tsids[:]
	}
	var few [8]int
	missed := few[:0]
	for i, k := range keys {
		if els, ok := c.lookup(cacheKey{store: st, kind: kind, id: k}, st, at); ok {
			slots[i] = cachedSlot{els: els, hit: true}
			hits++
		} else {
			missed = append(missed, k)
		}
	}
	if len(missed) == 0 {
		return hits, 0, 0
	}
	// generation BEFORE the lookup: an Add racing us stales the variant
	gen := st.Generation()
	attr := AttrID
	if tsid > 0 {
		attr = AttrTSID
	}
	st.scanPass(attr, missed)
	for i := range slots {
		if slots[i].hit {
			continue
		}
		fids := keys[i : i+1]
		if tsid > 0 {
			fids, _ = st.TSIDFillers(tsid)
		}
		els, _ := st.read(fids, tsid, at, Read{})
		built += len(els)
		c.fill(cacheKey{store: st, kind: kind, id: keys[i]}, newVariant(gen, st, fids, at, els))
		slots[i] = cachedSlot{els: els}
	}
	return hits, len(missed), built
}

// Resident counts the keys of a read — the fillers ids, or, when tsid > 0,
// the tsid — that have a resident, generation-fresh variant for st,
// regardless of as-of window: the Explain planner's window-agnostic
// effectiveness estimate (it predicts without knowing the future
// evaluation instant). It fills, promotes and counts nothing.
func (c *Cache) Resident(st *Store, tsid int, ids []int) int {
	kind, keys := kindFiller, ids
	tsids := [1]int{tsid}
	if tsid > 0 {
		kind, keys = kindTSID, tsids[:]
	}
	gen := st.Generation()
	n := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		if e, ok := c.byKey[cacheKey{store: st, kind: kind, id: k}]; ok && e.Value.(*cacheEntry).fresh(gen) {
			n++
		}
	}
	return n
}

// Usage reports the resident entries for one store and how many of them
// still hold a variant at the store's current generation.
func (c *Cache) Usage(st *Store) (entries, valid int) {
	if c == nil {
		return 0, 0
	}
	gen := st.Generation()
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ll.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		if ent.key.store != st {
			continue
		}
		entries++
		if ent.fresh(gen) {
			valid++
		}
	}
	return entries, valid
}

// fresh reports that e holds a variant of the store generation gen.
func (e *cacheEntry) fresh(gen uint64) bool {
	for _, v := range e.variants {
		if v.gen == gen {
			return true
		}
	}
	return false
}

// newVariant builds the memoized variant of a read of fids: els plus the
// as-of window over which the read returns them (Store.window).
func newVariant(gen uint64, st *Store, fids []int, at time.Time, els []*xmldom.Node) *cacheVariant {
	v := &cacheVariant{gen: gen, els: els}
	v.from, v.to, v.hasFrom, v.hasTo = st.window(fids, at)
	return v
}

// lookup serves a probe from memory: it drops stale-generation variants,
// and on a covering fresh variant promotes the entry and returns its
// elements (capacity clipped, so a caller's append cannot reach the
// memoized slice).
func (c *Cache) lookup(key cacheKey, st *Store, at time.Time) ([]*xmldom.Node, bool) {
	gen := st.Generation()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	kept := ent.variants[:0]
	var found *cacheVariant
	for _, v := range ent.variants {
		if v.gen != gen {
			c.stats.Invalidations++
			continue
		}
		kept = append(kept, v)
		if found == nil && v.covers(at) {
			found = v
		}
	}
	ent.variants = kept
	if found == nil {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(e)
	c.stats.Hits++
	return found.els[:len(found.els):len(found.els)], true
}

// fill inserts (or refreshes) the variant under key, evicting the least
// recently used entry past capacity.
func (c *Cache) fill(key cacheKey, v *cacheVariant) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		ent := e.Value.(*cacheEntry)
		ent.variants = append(ent.variants, v)
		if len(ent.variants) > maxVariants {
			ent.variants = append(ent.variants[:0], ent.variants[len(ent.variants)-maxVariants:]...)
		}
		c.ll.MoveToFront(e)
		return
	}
	e := c.ll.PushFront(&cacheEntry{key: key, variants: []*cacheVariant{v}})
	c.byKey[key] = e
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}
