package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestAttributeFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byLayer, total, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	if total != time.Second {
		t.Errorf("total = %v, want 1s", total)
	}
	want := map[string]time.Duration{
		"netsim":   500 * time.Millisecond, // innermost repro frame wins over main and sim callers
		"core":     200 * time.Millisecond, // runtime.mallocgc is charged to its caller's layer
		"netstate": 100 * time.Millisecond,
		"gc":       150 * time.Millisecond,
		"bench":    30 * time.Millisecond,
		"other":    20 * time.Millisecond,
	}
	if len(byLayer) != len(want) {
		t.Errorf("layers = %v, want %v", byLayer, want)
	}
	for k, v := range want {
		if byLayer[k] != v {
			t.Errorf("%s = %v, want %v", k, byLayer[k], v)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/stablematch.Match"}, "stablematch"},
		{[]string{"repro/internal/topology.(*Topology).treeDist"}, "topology"},
		{[]string{"runtime.memmove", "repro/internal/cluster.(*Cluster).Place"}, "cluster"},
		{[]string{"main.writeInts", "repro/internal/sim.(*Engine).RunWithArrivals"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestAttributeRejectsGarbage(t *testing.T) {
	in := "-----------+------\n  notaduration   repro/internal/core.X\n"
	if _, _, err := attribute(strings.NewReader(in)); err == nil {
		t.Error("want an error for a sample line without a duration")
	}
	if _, total, err := attribute(strings.NewReader("")); err != nil || total != 0 {
		t.Errorf("empty input: total %v err %v", total, err)
	}
}
