package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// Host-noise probes: fixed loops timed before and after a run, so a noisy
// verdict can be traced to host drift or to the program. They are
// diagnostics only; no metric is normalized by them.

const (
	memProbeWords = 8 << 20 // 64 MB of uint64
	memProbeReads = 1 << 20
	cpuProbeWords = 64 << 10 // 512 KB of uint64, cache resident
	cpuProbeLoops = 1024
)

// probeSink keeps the probe loops from being optimized away.
var probeSink uint64

// memProbe times memProbeReads dependent random reads over 64 MB.
func memProbe() time.Duration {
	buf := make([]uint64, memProbeWords)
	for i := range buf {
		buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < memProbeReads; i++ {
		x = buf[(x^uint64(i))%memProbeWords] + x
	}
	d := time.Since(t0)
	probeSink += x
	return d
}

// cpuProbe times cpuProbeLoops sequential passes over 512 KB.
func cpuProbe() time.Duration {
	buf := make([]uint64, cpuProbeWords)
	for i := range buf {
		buf[i] = uint64(i)
	}
	t0 := time.Now()
	var x uint64
	for l := 0; l < cpuProbeLoops; l++ {
		for i := range buf {
			x = x*31 + buf[i]
		}
	}
	d := time.Since(t0)
	probeSink += x
	return d
}

// hostInfo describes the machine a run measured on.
type hostInfo struct {
	nproc, gomaxprocs int
	goVersion, cpu    string
}

func readHostInfo() hostInfo {
	return hostInfo{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
