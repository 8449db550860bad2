// Command vnsbench is the repository benchmark. It runs one workload
// against the routing and data planes through their public functions,
// checks every output against the oracle in oracle.go, and prints one
// JSON result line:
//
//	bash vnsbench/run.sh --workload failover --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with spans, replays and a CPU profile
// and the result carries the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// numAS sizes the synthetic Internet; setups is how many times the
	// world is built to take the median set-up time; flows is the flow
	// population of the flows workload. Tests shrink all three.
	numAS  int
	setups int
	flows  int
	// outDir receives the span log and CPU profile of a traced run.
	outDir string
}

// fullScale is the configuration the command line runs.
func fullScale() config {
	return config{numAS: 2500, setups: 3, flows: 200_000, outDir: ".bench_build/vnsbench"}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"failover":    runFailover,
	"wire-update": runWireUpdate,
	"mgmt-lookup": runMgmtLookup,
	"flows":       runFlows,
}

func main() {
	cfg := fullScale()
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: failover, wire-update, mgmt-lookup or flows")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	flag.Parse()
	cfg.trace = *trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnsbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run validates cfg and runs its workload.
func run(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
	}
	return fn(cfg)
}
