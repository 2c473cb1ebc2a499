package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json lists under key.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkDeclared fails unless got carries exactly the declared metrics,
// each with its declared unit.
func checkDeclared(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("metric %s = %+v, want unit %q", name, m, unit)
		}
	}
}

// runSmoke measures def with n jobs and one instance, without golden
// values, and returns its result.
func runSmoke(t *testing.T, def workloadDef, n int, cfg config) *result {
	t.Helper()
	def.jobs, def.instances, def.golden = n, 1, nil
	cfg.workload, cfg.seed = def.name, defaultSeed
	var out bytes.Buffer
	res, err := bench(def, cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\nstdout:\n%s", def.name, err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result = correct %v attempted %d failed %d\nstdout:\n%s",
			res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runSmoke(t, w, 4, config{seconds: 0.01})
			checkDeclared(t, res.Metrics, declared(t, "end_to_end"))
			for _, name := range endToEndNames {
				m, ok := res.Metrics[name]
				if !ok || m.Value <= 0 || m.Unit == "" {
					t.Errorf("metric %s = %+v, want a positive value with a unit", name, m)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a run and calls go tool pprof")
	}
	def, _ := lookupWorkload("shuffle-tree64")
	res := runSmoke(t, def, 4, config{seconds: 0.5, trace: true, workdir: t.TempDir()})
	checkDeclared(t, res.Metrics, declared(t, "per_layer"))
	if res.Metrics["netsim.cpu_share"].Value <= 0 {
		t.Errorf("netsim.cpu_share = %v on a simulated workload", res.Metrics["netsim.cpu_share"].Value)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if strings.Contains(out.String(), "{") {
		t.Error("unknown workload printed a result")
	}
}
