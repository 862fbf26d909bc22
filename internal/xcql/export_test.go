package xcql

// SetBareReads turns the compiler's marking of reads whose tops nothing
// observes (Intrinsic.Bare) on or off for the compilations that follow, and
// returns what puts it back.
func SetBareReads(on bool) (restore func()) {
	was := bareReads
	bareReads = on
	return func() { bareReads = was }
}

// SetPushSpans turns the compiler's pushdown of a projection into the read
// of the step it follows (pushSpan) on or off for the compilations that
// follow, and returns what puts it back.
func SetPushSpans(on bool) (restore func()) {
	was := pushSpans
	pushSpans = on
	return func() { pushSpans = was }
}

// CachedPlans reports how many plans rt's plan cache holds and the bytes of
// their texts.
func (rt *Runtime) CachedPlans() (plans, bytes int) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.plans.plans), rt.plans.bytes
}
