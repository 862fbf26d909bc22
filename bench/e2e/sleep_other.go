//go:build !unix

package main

import "time"

func preciseSleep(d time.Duration) { time.Sleep(d) }
