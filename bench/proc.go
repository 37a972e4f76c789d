package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSample is a reading of the process-wide counters the benchmark turns
// into capacity and per-layer process metrics.
type procSample struct {
	cpu        time.Duration // user + system CPU of every thread
	allocBytes uint64
	gcCycles   uint64
	pauseNS    uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	var s procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.gcCycles = samples[1].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseNS = ms.PauseTotalNs
	return s
}

// liveHeapMB forces a collection and returns the heap the collector found
// live, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
