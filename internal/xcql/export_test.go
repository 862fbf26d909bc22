package xcql

// SetBareReads turns the compiler's marking of reads whose tops nothing
// observes (Intrinsic.Bare) on or off for the compilations that follow, and
// returns what puts it back.
func SetBareReads(on bool) (restore func()) {
	was := bareReads
	bareReads = on
	return func() { bareReads = was }
}
