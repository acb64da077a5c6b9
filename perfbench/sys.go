package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB since
// the last resetPeakRSS. The serving workloads read it in the process
// that runs the system, the paper-range workload in the harness, which
// is the library's caller.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS sets the process's peak resident set to what it holds
// now, so the peak read later covers only what happens from here on.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// freeGarbage collects garbage and returns the freed memory to the
// system, so memory a finished step no longer uses is not resident.
func freeGarbage() {
	runtime.GC()
	debug.FreeOSMemory()
}

// goCost snapshots the Go runtime's allocation and GC CPU counters.
type goCost struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

var goSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoCost() goCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), goSamples...)
	metrics.Read(s)
	return goCost{mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// perOp reports allocations and allocated bytes per operation, and the
// share of the process's CPU time the garbage collector took, between
// two snapshots.
func (a goCost) perOp(b goCost, ops int) (allocs, bytes, gcFrac float64) {
	n := float64(ops)
	return float64(b.mallocs-a.mallocs) / n, float64(b.bytes-a.bytes) / n,
		ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
}
