package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB returns the process's peak resident set size (VmHWM) in MiB.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// goSample is a snapshot of the Go runtime's cumulative allocation and GC
// counters.
type goSample struct {
	cpu      time.Duration // process CPU (rusage)
	allocs   uint64        // heap objects allocated
	bytes    uint64        // heap bytes allocated
	gcCPU    float64       // GC CPU seconds (runtime estimate)
	totalCPU float64       // all CPU seconds the runtime accounts
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// sampleGo reads the runtime counters and the process CPU time.
func sampleGo() goSample {
	ss := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u64 := func(v metrics.Value) uint64 {
		if v.Kind() == metrics.KindUint64 {
			return v.Uint64()
		}
		return 0
	}
	f64 := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return 0
	}
	return goSample{
		cpu:      cpuTime(),
		allocs:   u64(ss[0].Value),
		bytes:    u64(ss[1].Value),
		gcCPU:    f64(ss[2].Value),
		totalCPU: f64(ss[3].Value),
	}
}

// goDelta is what the process spent between two samples, per frame.
type goDelta struct {
	cpuMsPerFrame      float64
	allocsPerFrame     float64
	allocBytesPerFrame float64
	gcCPUFrac          float64
}

func deltaGo(a, b goSample, frames int) goDelta {
	n := float64(max(frames, 1))
	d := goDelta{
		cpuMsPerFrame:      ms(b.cpu-a.cpu) / n,
		allocsPerFrame:     float64(b.allocs-a.allocs) / n,
		allocBytesPerFrame: float64(b.bytes-a.bytes) / n,
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}
