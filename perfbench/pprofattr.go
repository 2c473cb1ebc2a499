package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// modulePrefix marks the program's own packages in a profile's frames.
const modulePrefix = "repro/internal/"

// layerOf names the layer one sampled stack belongs to: the package of its
// innermost repro/internal frame, so runtime work such as allocation is
// charged to the layer that asked for it, or "bench" when a frame of the
// benchmark's own main package is closer to the leaf. Stacks outside both
// are "gc" for the collector's background workers and "other" for the rest
// of the runtime.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") {
			return "gc"
		}
	}
	return "other"
}

// attribute folds the output of `go tool pprof -traces` by layer. Each
// trace is a block between dashed separators whose first line holds the
// sample value and the innermost frame, and whose later lines hold the
// callers, innermost first.
func attribute(r io.Reader) (map[string]time.Duration, time.Duration, error) {
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	var val time.Duration
	var frames []string
	inTrace := false
	flush := func() {
		if inTrace {
			byLayer[layerOf(frames)] += val
			total += val
		}
		inTrace, frames = false, frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace = true
			val = -1
			continue
		}
		if !inTrace {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if val < 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			val = d
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if inTrace && len(frames) > 0 {
		flush()
	}
	return byLayer, total, nil
}

// cpuShares attributes a CPU profile file to layers with the toolchain's
// pprof and returns each layer's share of the sampled CPU time.
func cpuShares(profile string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("locating go for pprof: %w", err)
	}
	var out, errb bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-symbolize=none", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	byLayer, total, err := attribute(&out)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(byLayer))
	for k, v := range byLayer {
		if total > 0 {
			shares[k] = float64(v) / float64(total)
		}
	}
	return shares, nil
}
