//go:build !linux

package main

import "time"

// sleepFor sleeps with the runtime's timers, which may wake an idle process
// up to a millisecond late.
func sleepFor(d time.Duration) { time.Sleep(d) }
