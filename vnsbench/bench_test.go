package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// shortScale runs a workload on a small world, so the whole harness —
// set-up, operations, oracle checks, tracing and the result line — is
// exercised in seconds. An untraced run is one round; a traced run lasts
// long enough for its CPU profile to sample the workload's main module.
func shortScale(t *testing.T, workload string, trace bool) config {
	seconds := 0.01
	if trace {
		seconds = 0.5
	}
	return config{
		workload: workload, seed: 7, seconds: seconds, trace: trace,
		numAS: 300, setups: 2, flows: 4000, outDir: t.TempDir(),
	}
}

// movingLayers are the per-layer metrics each workload must move: the
// layers it calls (README.md's per-layer reference), one CPU module it
// spends most of its time in, and its allocation rate. A metric that
// reads 0 here points at a broken counter read, replay or profile parse.
var movingLayers = map[string][]string{
	"failover": {"health.apply_ms", "core.assign_calls", "core.assign_ns", "geoip.lookup_ns",
		"vns.resolve_us", "fib.full_compiles", "fib.publish_ratio", "fib.compile_ms", "fib.trie_nodes",
		"fib.lookup_ns", "conv.forwarding_ms", "cpu.vns_s", "runtime.alloc_mb"},
	"wire-update": {"core.assign_calls", "core.assign_ns", "geoip.lookup_ns", "vns.resolve_us",
		"bgp.encode_us", "bgp.decode_us", "bgp.msgs_in", "rib.apply_batch_us", "fib.skipped_flushes",
		"fib.trie_nodes", "conv.georr_ms", "cpu.vns_s", "runtime.alloc_mb"},
	"mgmt-lookup": {"core.assign_calls", "core.assign_ns", "vns.resolve_us", "fib.delta_compiles",
		"fib.publish_ratio", "fib.delta_us", "fib.trie_nodes", "fib.lookup_ns", "cpu.core_s", "runtime.alloc_mb"},
	"flows": {"flowsim.slice_ms", "netsim.drops", "cpu.flowsim_s", "runtime.alloc_mb"},
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	return endToEnd, perLayer
}

func TestWorkloadsShort(t *testing.T) {
	e2e, layer := declared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res, err := run(shortScale(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", name, m, got.Value)
				}
			}
			if !trace {
				continue
			}
			if len(movingLayers[name]) == 0 {
				t.Errorf("%s: no per-layer metric is required to move", name)
			}
			for _, m := range movingLayers[name] {
				if _, ok := layer[m]; !ok {
					t.Errorf("%s: %s is not a declared per-layer metric", name, m)
				}
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s: per-layer metric %s reads %v", name, m, res.Metrics[m].Value)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	cfg := shortScale(t, "no-such-workload", false)
	if _, err := run(cfg); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestFailedOpMakesRunIncorrect checks that one failed operation is
// counted and turns the result line's correct flag false.
func TestFailedOpMakesRunIncorrect(t *testing.T) {
	var rec recorder
	rec.op(func() {})
	rec.op(func() {})
	rec.fail("oracle mismatch")
	res := endToEnd([]float64{1}, &rec, nil)
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false, 2, 1", res.Correct, res.Attempted, res.Failed)
	}
}

// TestRoundP90 checks that op_p90_ms is the median of the rounds' p90s,
// so one round with a slow operation does not move it.
func TestRoundP90(t *testing.T) {
	r := recorder{
		latMs: []float64{
			1, 2, 3, 4, 5, 6, 7, 8, 9, 10, // p90 9.1
			1, 2, 3, 4, 5, 6, 7, 8, 9, 500, // p90 58.1
			2, 3, 4, 5, 6, 7, 8, 9, 10, 11, // p90 10.1
		},
		roundEnds: []int{10, 20, 30},
	}
	if got := r.roundP90(); math.Abs(got-10.1) > 1e-9 {
		t.Errorf("roundP90 = %v, want 10.1", got)
	}
}
