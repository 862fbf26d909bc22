package fragment

// Built reports whether f's payload tree exists: always for a fragment
// built in memory, and for a decoded one once something has read it.
func Built(f *Fragment) bool {
	lz := f.enc.lazy()
	return lz == nil || lz.tree.Load() != nil
}
