//go:build unix

package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in the kernel for d. time.Sleep
// is no substitute here: the runtime parks idle threads in a poll with a
// whole-millisecond timeout, so its wake-ups land up to a millisecond
// late — the size of the latencies the open loop is there to measure.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is absorbed by the caller's polling
}
