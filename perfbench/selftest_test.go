package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks
// against the program: workload names and every metric's unit.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tinyRun prepares and executes one run at the self-test scale.
func tinyRun(t *testing.T, name string, trace bool, corrupt int) (*result, map[string]any) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scaleByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	o := &options{w: w, seed: 3, seconds: 0.5, trace: trace, sc: sc, cache: t.TempDir(), corrupt: corrupt}
	if err := prep(o); err != nil {
		t.Fatalf("prep: %v", err)
	}
	res, rec, err := execute(o)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, rec["record"].(map[string]any)
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// tables here in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	// The program's workloads are BENCHMARK.json's in order, then
	// storm_serial (see workloads).
	if len(b.Workloads) != len(workloads)-1 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d besides storm_serial", len(b.Workloads), len(workloads)-1)
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestEveryWorkloadPrintsEveryMetric runs each workload on a small feed,
// untraced and traced, and checks that the run is correct and that every
// named metric prints with its unit.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, rec := tinyRun(t, w.name, trace, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, rec["errors"])
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.name, got, m.unit)
				}
			}
			for _, key := range []string{"cpu_model", "nproc", "gomaxprocs", "go_version", "commit", "source_sha256", "seed", "cpu_s", "wall_s"} {
				if _, ok := rec[key]; !ok {
					t.Errorf("%s trace=%v: record lacks %s", w.name, trace, key)
				}
			}
		}
	}
}

// TestGateTripsOnCorruptedRecord flips one byte of one sink record and
// expects the correctness gate to fail the run.
func TestGateTripsOnCorruptedRecord(t *testing.T) {
	for _, name := range []string{"replay_sharded", "live_provisional"} {
		res, rec := tinyRun(t, name, false, 5)
		if res.Correct {
			t.Errorf("%s: a corrupted record passed the gate", name)
		}
		if errs, _ := rec["errors"].(string); !strings.Contains(errs, errMismatch.Error()) {
			t.Errorf("%s: errors %q, want a record mismatch", name, errs)
		}
	}
}
