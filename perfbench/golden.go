package main

import (
	"math"
	"runtime"
)

// goldenOutputs pins each workload's outputs for the default seed at the
// default size, summed over a repetition's instances. A change to the
// program that alters any placement, route or simulated time shows here as
// a correctness failure. A run prints its values in this form on its
// "golden:" line.
type goldenOutputs struct {
	flows               int
	cost, jct, makespan uint64 // math.Float64bits of the values
	digest              uint64
}

var (
	goldenPlace   = goldenOutputs{flows: 83166, cost: 0x408f3088227d0c54, jct: 0x0, makespan: 0x0, digest: 0xd5382b422ac2f506}
	goldenShuffle = goldenOutputs{flows: 49152, cost: 0x40bd3971f95b5a52, jct: 0x40732e5afb769942, makespan: 0x408045e0fcab128f, digest: 0xfd8badd07c625972}
	goldenFaults  = goldenOutputs{flows: 24576, cost: 0x40ca029e395ce71d, jct: 0x407aa5c08d50736f, makespan: 0x407a70b999a233a4, digest: 0x7025ff164e879ce1}
)

// goldenArch is where the values were recorded: other architectures may
// fuse floating-point operations differently and legitimately differ.
const goldenArch = "amd64"

// checkGolden compares a default-seed outcome with the recorded one, g.
// checked is false when nothing is recorded for the input.
func checkGolden(g *goldenOutputs, seed int64, o outcome) (ok, checked bool) {
	if g == nil || seed != defaultSeed || runtime.GOARCH != goldenArch {
		return true, false
	}
	return o.flows == g.flows && math.Float64bits(o.cost) == g.cost &&
		math.Float64bits(o.jctMean) == g.jct && math.Float64bits(o.makespan) == g.makespan &&
		o.digest == g.digest, true
}
