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
// window: the output of GetFillers(id, at) is constant for every at in
// [validTime of the last visible version, validTime of the next
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
// A nil *Cache is valid and means "no caching": every lookup method
// falls through to the store and reports a miss, mirroring the nil
// conventions of budget.Budget and obs.EvalStats. A Cache is safe for
// concurrent use; one cache may serve many stores and many evaluations.
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

// GetFillers is a caching Store.GetFillers: a hit serves the memoized
// elements without touching the store; a miss resolves,
// fills the cache and reports hit=false so the caller can charge the
// store pass. On a nil cache it falls through to the store.
func (c *Cache) GetFillers(st *Store, fillerID int, at time.Time) (els []*xmldom.Node, hit bool) {
	if c == nil {
		return st.GetFillers(fillerID, at), false
	}
	key := cacheKey{store: st, kind: kindFiller, id: fillerID}
	if els, ok := c.lookup(key, st, at); ok {
		return els, true
	}
	// generation BEFORE the lookup: an Add racing us stales the variant
	gen := st.Generation()
	ids := []int{fillerID}
	out, _ := st.lookup(ids, at, nil, Window{})
	c.fill(key, newVariant(gen, st, ids, at, out))
	return out, false
}

// GetFillersList is GetFillers over a hole-id set, a repeated id counted
// only at its first position: slots[i] holds the versions of the i-th
// distinct id. Ids already resident are served from memory and all missing
// ids share ONE lookup pass, preserving the batched cost shape that
// separates QaC+ from QaC. It reports the hit and miss counts and the
// number of elements the miss pass built (hits build none); the caller
// charges that pass when there were misses. On a nil cache every id is a
// miss.
func (c *Cache) GetFillersList(st *Store, fillerIDs []int, at time.Time) (slots [][]*xmldom.Node, hits, misses, built int) {
	fillerIDs = distinctIDs(fillerIDs)
	slots = make([][]*xmldom.Node, len(fillerIDs))
	var missPos []int
	for i, id := range fillerIDs {
		if els, ok := c.lookup(cacheKey{store: st, kind: kindFiller, id: id}, st, at); ok {
			slots[i] = els
			hits++
			continue
		}
		missPos = append(missPos, i)
	}
	if misses = len(missPos); misses > 0 {
		gen := st.Generation()
		missIDs := make([]int, misses)
		for j, i := range missPos {
			missIDs[j] = fillerIDs[i]
		}
		st.scanPass(AttrID, missIDs)
		for j, i := range missPos {
			ids := missIDs[j : j+1]
			els, _ := st.read(ids, 0, at, nil, Window{})
			built += len(els)
			if c != nil {
				c.fill(cacheKey{store: st, kind: kindFiller, id: ids[0]}, newVariant(gen, st, ids, at, els))
			}
			slots[i] = els
		}
	}
	return slots, hits, misses, built
}

// GetFillersByTSID is GetFillers for the lookup by tsid.
func (c *Cache) GetFillersByTSID(st *Store, tsid int, at time.Time) (els []*xmldom.Node, hit bool) {
	if c == nil {
		els, _ = st.lookupTSID(tsid, at, nil)
		return els, false
	}
	key := cacheKey{store: st, kind: kindTSID, id: tsid}
	if els, ok := c.lookup(key, st, at); ok {
		return els, true
	}
	gen := st.Generation()
	out, _ := st.lookupTSID(tsid, at, nil)
	fids, _ := st.TSIDFillers(tsid)
	c.fill(key, newVariant(gen, st, fids, at, out))
	return out, false
}

// ResidentFillers counts how many of ids have a resident,
// generation-fresh variant for st, regardless of as-of window — the
// Explain planner's window-agnostic effectiveness estimate (it predicts
// without knowing the future evaluation instant).
func (c *Cache) ResidentFillers(st *Store, ids []int) int {
	if c == nil {
		return 0
	}
	gen := st.Generation()
	n := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if e, ok := c.byKey[cacheKey{store: st, kind: kindFiller, id: id}]; ok {
			for _, v := range e.Value.(*cacheEntry).variants {
				if v.gen == gen {
					n++
					break
				}
			}
		}
	}
	return n
}

// ResidentTSID is ResidentFillers for one tsid entry.
func (c *Cache) ResidentTSID(st *Store, tsid int) bool {
	if c == nil {
		return false
	}
	gen := st.Generation()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[cacheKey{store: st, kind: kindTSID, id: tsid}]; ok {
		for _, v := range e.Value.(*cacheEntry).variants {
			if v.gen == gen {
				return true
			}
		}
	}
	return false
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
		for _, v := range ent.variants {
			if v.gen == gen {
				valid++
				break
			}
		}
	}
	return entries, valid
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
// memoized slice). A nil cache holds nothing.
func (c *Cache) lookup(key cacheKey, st *Store, at time.Time) ([]*xmldom.Node, bool) {
	if c == nil {
		return nil, false
	}
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
