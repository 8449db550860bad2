package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"

	"vns/internal/flowsim"
	"vns/internal/loss"
	"vns/internal/netsim"
	"vns/internal/relay"
)

// The flows workload is the data plane alone: a large aggregate flow
// population carried by flowsim over dedicated netsim links, with
// multipath weights picked by relay.SelectPaths and the offload
// controller on. One operation is one simulated second; a round is
// flowsRound of them.

const (
	flowRatePps = 25 // an audio+video conference leg at the media MTU
	flowsRound  = 10
	// offloadBelowMs is flowsim's default OffloadConfig.OffloadBelowMs:
	// a group whose overlay is less than this far ahead of the direct
	// Internet moves off the overlay.
	offloadBelowMs = 2
)

// flowTemplate is one population of the mix.
type flowTemplate struct {
	name     string
	share    float64   // fraction of the population
	delays   []float64 // one-way propagation ms per overlay path; nil = direct only
	lossRate float64   // loss on the first path
	dup      float64
	directMs float64
	directLn float64 // direct path loss rate
}

// flowMix is the representative mix of path geometries the repository's
// flow study and soak harness run (flowsTemplates in
// internal/experiments/flows.go, which this mirrors): an EU regional pair
// with a fast two-path split, a transpacific pair whose two routes are
// nearly equal, a transatlantic single path, an overlay slower than the
// direct Internet that the controller abandons, a lossy pair running
// duplication repair, and a population with no overlay presence.
var flowMix = []flowTemplate{
	{name: "eu-multipath", share: 0.30, delays: []float64{7, 10}, directMs: 60},
	{name: "transpacific-split", share: 0.20, delays: []float64{73.2, 73.3}, directMs: 120},
	{name: "transatlantic", share: 0.20, delays: []float64{35}, directMs: 50},
	{name: "congested-overlay", share: 0.10, delays: []float64{90}, directMs: 45},
	{name: "lossy-repair", share: 0.10, delays: []float64{40, 42}, lossRate: 0.01, dup: 0.25, directMs: 80},
	{name: "direct-only", share: 0.10, directMs: 70, directLn: 0.005},
}

// runsDirect is the oracle for the offload controller: a group runs on
// the direct Internet when it has no overlay path, or when its slowest
// overlay path leaves it less than offloadBelowMs ahead of direct. Every
// group of the mix clears the threshold by 13 ms or more either way.
func (t flowTemplate) runsDirect() bool {
	if len(t.delays) == 0 {
		return true
	}
	return t.directMs-slices.Max(t.delays) < offloadBelowMs
}

type flowsRun struct {
	sim    *netsim.Sim
	eng    *flowsim.Engine
	flows  int
	direct map[string]bool // oracle: group name -> expected offloaded
}

// buildFlows builds the flow population: each template's share of
// cfg.flows on links of its own, sized for their multipath share of the
// load with 30% headroom, as the flow study sizes them. The seed picks
// the order in which the groups are added, and so which flows share an
// epoch shard; the load is the same on every seed.
func buildFlows(cfg config) (*flowsRun, error) {
	sim := &netsim.Sim{}
	eng := flowsim.New(flowsim.Config{Sim: sim, Shards: 16, Offload: flowsim.OffloadConfig{Enabled: true}})
	f := &flowsRun{sim: sim, eng: eng, direct: map[string]bool{}}
	order := rand.New(rand.NewPCG(cfg.seed, 0x666c6f7773)).Perm(len(flowMix))
	for _, ti := range order {
		t := flowMix[ti]
		n := int(math.Round(float64(cfg.flows) * t.share))
		cands := make([]relay.PathCandidate, len(t.delays))
		for i, d := range t.delays {
			cands[i] = relay.PathCandidate{Name: fmt.Sprintf("%s/p%d", t.name, i), DelayMs: d}
		}
		var paths []flowsim.PathSpec
		for _, c := range relay.SelectPaths(cands, 2, 30) {
			var lm loss.Model
			if c.Index == 0 && t.lossRate > 0 {
				lm = loss.NewUniform(t.lossRate, nil)
			}
			loadMbps := float64(n) * c.Weight * flowRatePps * 1200 * 8 / 1e6
			l := netsim.NewLink(cands[c.Index].Name, t.delays[c.Index], loadMbps*1.3, lm, nil)
			l.QueueLimit = 1 << 20
			paths = append(paths, flowsim.PathSpec{Name: cands[c.Index].Name, Links: []*netsim.Link{l}, Weight: c.Weight})
		}
		gid, err := eng.AddGroup(flowsim.GroupConfig{
			Name:           t.name,
			Paths:          paths,
			DirectMs:       t.directMs,
			DirectLossRate: t.directLn,
			MaxReorderMs:   30,
			DupFraction:    t.dup,
		})
		if err != nil {
			return nil, err
		}
		if err := eng.AddFlows(gid, n, flowRatePps, 0); err != nil {
			return nil, err
		}
		f.flows += n
		f.direct[t.name] = t.runsDirect()
	}
	eng.Start()
	return f, nil
}

func runFlows(cfg config) (*result, error) {
	// The data plane is single-threaded, and it runs on one P. With two,
	// on a 2-vCPU VM, the build, which grows the heap through seven or
	// eight collections, took about four times as long (about 40 ms
	// against 11) and spread over 30–120 ms (README.md, Findings).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A build takes about ten milliseconds, so it is timed ten times as
	// often as the other workloads' builds to steady setup_s.
	sc := cfg
	sc.setups *= 10
	f, setups, err := timeSetups(sc, func() (*flowsRun, error) { return buildFlows(cfg) }, func(*flowsRun) {})
	if err != nil {
		return nil, err
	}
	var rec recorder
	var lay *layers
	if cfg.trace {
		if lay, err = startLayers(cfg); err != nil {
			return nil, err
		}
	}
	var sliceMs []float64
	var drops uint64
	runtime.GC()
	if err := timedRounds(cfg.seconds, &rec, func() error {
		for i := 0; i < flowsRound; i++ {
			before := f.eng.Totals()
			until := f.sim.Now() + 1
			d := rec.op(func() {
				if lay != nil {
					id := lay.tr.begin(rec.attempted+1, 0, "flowsim", "Sim.Run")
					f.sim.Run(until)
					sliceMs = append(sliceMs, lay.tr.end(id)*1e3)
					return
				}
				f.sim.Run(until)
			})
			after := f.eng.Totals()
			rec.rate(float64(after.Scheduled-before.Scheduled), d)
			drops += (after.DropsLoss + after.DropsQueue) - (before.DropsLoss + before.DropsQueue)
			if !after.Conserved() {
				rec.fail("second %.0f: totals not conserved: %+v", until, after)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Drain and check the whole run exactly: every flow balanced, and
	// flows × rate × simulated seconds packets sent.
	simulated := f.sim.Now()
	f.eng.Stop()
	f.sim.RunAll()
	tot := f.eng.Totals()
	want := uint64(f.flows) * flowRatePps * uint64(math.Round(simulated))
	if err := f.eng.CheckConservation(); err != nil {
		rec.fail("conservation: %v", err)
	} else if tot.Scheduled != want {
		rec.fail("%d packets sent over %.0f simulated seconds, want %d flows × %d pps = %d",
			tot.Scheduled, simulated, f.flows, flowRatePps, want)
	}
	// Each group ends where the offload oracle puts it.
	offloaded := 0
	for _, g := range f.eng.Groups() {
		if g.Offloaded != f.direct[g.Name] {
			rec.fail("group %s offloaded=%v after %.0f simulated seconds, oracle %v", g.Name, g.Offloaded, simulated, f.direct[g.Name])
		}
		if g.Offloaded {
			offloaded += g.Flows
		}
	}
	fmt.Fprintf(os.Stderr, "vnsbench: flows: %d of %d flows offloaded at the end (%.0f%%)\n", offloaded, f.flows, 100*float64(offloaded)/float64(f.flows))
	if lay == nil {
		return endToEnd(setups, &rec, f), nil
	}
	lay.stopTimed(rec.attempted)
	lay.set("flowsim.slice_ms", quantile(sliceMs, 0.5))
	lay.set("netsim.drops", float64(drops)/float64(max(1, rec.attempted)))
	return lay.finish(cfg, &rec)
}
