package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantileDur returns the q-quantile of ds by linear interpolation between
// order statistics (0 for an empty sample). ds is sorted in place.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(ds)-1)
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[hi]-ds[lo]))
}

// median returns the median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// maxRSSMB is this process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocObjects is the number of heap objects allocated so far, read
// without stopping the world.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	allocBytes, allocs, gcCycles uint64
	gcPause                      time.Duration
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{m.TotalAlloc, m.Mallocs, uint64(m.NumGC), time.Duration(m.PauseTotalNs)}
}

// goLayer reports the runtime counters accumulated since before as the
// go.* per-layer metrics.
func goLayer(into map[string]metric, before goStats) {
	now := readGoStats()
	into["go.alloc_mb"] = metric{Value: float64(now.allocBytes-before.allocBytes) / (1 << 20), Unit: "MB"}
	into["go.allocs"] = metric{Value: float64(now.allocs - before.allocs), Unit: "count"}
	into["go.gc_cycles"] = metric{Value: float64(now.gcCycles - before.gcCycles), Unit: "count"}
	into["go.gc_pause_ms"] = metric{Value: ms(now.gcPause - before.gcPause), Unit: "ms"}
}
