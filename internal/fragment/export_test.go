package fragment

// Built reports whether f's payload tree exists: always for a fragment
// built in memory, and for a decoded one once something has read it.
func Built(f *Fragment) bool {
	lz := f.enc.lazy()
	return lz == nil || lz.tree.Load() != nil
}

// KeptNotes reports the room a Scratch keeps for a read's notes, and
// whether every slot of it is empty: a note left behind keeps its version
// alive.
func KeptNotes(s *Scratch) (room int, clean bool) {
	for _, k := range s.notes[:cap(s.notes)] {
		if k != (keptVersion{}) {
			return cap(s.notes), false
		}
	}
	return cap(s.notes), true
}

// Caps are the caps of the buffers a Scratch keeps: notes, ids, groups.
var Caps = [3]int{keptNotes, keptIDs, keptGroups}
