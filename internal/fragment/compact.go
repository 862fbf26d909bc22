package fragment

import (
	"strconv"

	"xcql/internal/xmldom"
)

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
			strconv.FormatInt(f.ValidTime.UnixNano(), 10) + "|" + f.Tree().String()
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
