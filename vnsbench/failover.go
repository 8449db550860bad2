package main

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"runtime"

	"vns/internal/fib"
	"vns/internal/health"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// The failover workload fails and restores the single-homed SIN–SYD
// link in turn through health.Controller.Apply. Each event re-resolves
// the whole prefix universe at all 11 PoPs; bgp and rib do no work. A
// round is one failure plus one restore.

type failoverRun struct {
	w        *world
	ctl      *health.Controller
	sin, syd *vns.PoP
}

func buildFailover(cfg config) (*failoverRun, error) {
	w := buildWorld(cfg)
	return &failoverRun{
		w:   w,
		ctl: health.NewController(w.fwd, w.env.RR, nil),
		sin: w.env.Net.PoP("SIN"),
		syd: w.env.Net.PoP("SYD"),
	}, nil
}

// want is the oracle's expectation for one probe at one PoP.
type want struct {
	pop int
	v   verdict
}

// expectations computes, for every vantage PoP, what each prefix must
// resolve to when the link a–b is down (down=true) or everything is up.
// Reachability and isolation come from the benchmark's own walk over
// the link list.
func expectations(o *oracle, net *vns.Network, a, b *vns.PoP, down bool) map[int][]want {
	comp := map[int]int{}
	adj := map[int][]int{}
	for _, l := range net.L2Links() {
		if down && ((l[0] == a && l[1] == b) || (l[0] == b && l[1] == a)) {
			continue
		}
		adj[l[0].ID] = append(adj[l[0].ID], l[1].ID)
		adj[l[1].ID] = append(adj[l[1].ID], l[0].ID)
	}
	for _, id := range o.popIDs {
		if _, ok := comp[id]; ok {
			continue
		}
		stack := []int{id}
		comp[id] = id
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range adj[n] {
				if _, ok := comp[m]; !ok {
					comp[m] = id
					stack = append(stack, m)
				}
			}
		}
	}
	out := make(map[int][]want, len(o.popIDs))
	for _, v := range o.popIDs {
		usable := func(p int) bool { return comp[p] == comp[v] && len(adj[p]) > 0 }
		ws := make([]want, len(o.prefixes))
		for i := range o.prefixes {
			ws[i].pop, ws[i].v = o.expect(i, usable)
		}
		out[v] = ws
	}
	return out
}

// checkFIBs compares every PoP's FIB answer for every probe with the
// expectations; it returns a description of the first mismatch.
func checkFIBs(o *oracle, got map[int][]fibAnswer, exp map[int][]want) string {
	for _, v := range o.popIDs {
		for i, ans := range got[v] {
			w := exp[v][o.owner[i]]
			switch {
			case w.v == wantRoute && (!ans.ok || ans.nh.PoP != w.pop):
				return fmt.Sprintf("PoP %d probe %v (%v): FIB says %v ok=%v, oracle PoP %d",
					v, o.probe[i], o.prefixes[o.owner[i]], ans.nh, ans.ok, w.pop)
			case w.v == wantNoRoute && ans.ok:
				return fmt.Sprintf("PoP %d probe %v (%v): FIB routes via %v, oracle says no usable egress",
					v, o.probe[i], o.prefixes[o.owner[i]], ans.nh)
			}
		}
	}
	return ""
}

// sameAnswers reports the first probe whose FIB answer differs from the
// baseline.
func sameAnswers(o *oracle, got, base map[int][]fibAnswer) string {
	for _, v := range o.popIDs {
		for i := range got[v] {
			if got[v][i] != base[v][i] {
				return fmt.Sprintf("PoP %d probe %v: %v ok=%v after restore, %v ok=%v before the first failure",
					v, o.probe[i], got[v][i].nh, got[v][i].ok, base[v][i].nh, base[v][i].ok)
			}
		}
	}
	return ""
}

// reportSkips prints how many prefixes the oracle could not judge.
func reportSkips(exp map[int][]want, o *oracle) {
	var ties, nogeo int
	for _, w := range exp[o.popIDs[0]] {
		switch w.v {
		case skipTie:
			ties++
		case skipNoGeo:
			nogeo++
		}
	}
	fmt.Fprintf(os.Stderr, "vnsbench: oracle judges %d of %d prefixes; skipped %d near-ties, %d without geolocation\n",
		len(o.prefixes)-ties-nogeo, len(o.prefixes), ties, nogeo)
}

func runFailover(cfg config) (*result, error) {
	f, setups, err := timeSetups(cfg, func() (*failoverRun, error) { return buildFailover(cfg) }, func(*failoverRun) {})
	if err != nil {
		return nil, err
	}
	o := newOracle(f.w, cfg.seed)
	net := f.w.env.Net
	healthy := expectations(o, net, f.sin, f.syd, false)
	failed := expectations(o, net, f.sin, f.syd, true)
	reportSkips(healthy, o)
	base := o.snapshot(f.w)

	var rec recorder
	var lay *layers
	if cfg.trace {
		if lay, err = startLayers(cfg); err != nil {
			return nil, err
		}
	}
	pubs := f.w.fwd.Engines()
	var applyMs, compileMs, deltaUs []float64
	var assigns uint64
	var pub0 fib.Stats
	if lay != nil {
		pub0 = sumStats(pubs)
	}
	resolves := float64(len(o.prefixes) * len(o.popIDs))
	event := func(up bool) {
		p0, _ := f.w.env.RR.Stats()
		var prev []fib.Stats
		if lay != nil {
			prev = statsOf(pubs)
		}
		var took float64
		runtime.GC()
		d := rec.op(func() {
			if lay != nil {
				id := lay.tr.begin(rec.attempted+1, 0, "health", "Controller.Apply")
				f.ctl.Apply(f.sin, f.syd, up)
				took = lay.tr.end(id)
				return
			}
			f.ctl.Apply(f.sin, f.syd, up)
		})
		rec.rate(resolves, d)
		if lay != nil {
			applyMs = append(applyMs, took*1e3)
			p1, _ := f.w.env.RR.Stats()
			assigns += p1 - p0
			c, dl := compileSamples(prev, statsOf(pubs))
			compileMs, deltaUs = append(compileMs, c...), append(deltaUs, dl...)
		}
		got := o.snapshot(f.w)
		if up {
			if bad := sameAnswers(o, got, base); bad != "" {
				rec.fail("restore: %s", bad)
				return
			}
			if bad := checkFIBs(o, got, healthy); bad != "" {
				rec.fail("restore: %s", bad)
			}
			return
		}
		if bad := checkFIBs(o, got, failed); bad != "" {
			rec.fail("failure: %s", bad)
		}
	}
	runtime.GC()
	if err := timedRounds(cfg.seconds, &rec, func() error {
		event(false)
		event(true)
		return nil
	}); err != nil {
		return nil, err
	}
	if lay == nil {
		return endToEnd(setups, &rec, f), nil
	}
	lay.stopTimed(rec.attempted)
	ops := float64(rec.attempted)
	lay.set("health.apply_ms", quantile(applyMs, 0.5))
	lay.set("core.assign_calls", float64(assigns)/ops)
	setFIBLayers(lay, pub0, sumStats(pubs), ops, compileMs, deltaUs, pubs)
	setConvLayers(lay, f.w.fwd.Convergence())
	// Replays over a seeded sample of the (PoP, prefix) pairs every
	// event re-resolves.
	replayRouting(lay, f.w, samplePrefixes(o, cfg.seed, 512))
	replayLookups(lay, o, pubs)
	return lay.finish(cfg, &rec)
}

// statsOf reads every publisher's counters.
func statsOf(engs []*fib.Engine) []fib.Stats {
	out := make([]fib.Stats, len(engs))
	for i, e := range engs {
		out[i] = e.Publisher().Stats()
	}
	return out
}

// sumStats adds the publishers' counters.
func sumStats(engs []*fib.Engine) fib.Stats {
	var s fib.Stats
	for _, st := range statsOf(engs) {
		s.Compiles += st.Compiles
		s.DeltaCompiles += st.DeltaCompiles
		s.SkippedCompiles += st.SkippedCompiles
	}
	return s
}

// compileSamples returns the full-compile (ms) and delta-patch (us)
// durations of every publisher that published between two reads.
func compileSamples(prev, cur []fib.Stats) (compileMs, deltaUs []float64) {
	for i := range cur {
		if cur[i].Compiles > prev[i].Compiles {
			compileMs = append(compileMs, float64(cur[i].LastCompile.Nanoseconds())/1e6)
		}
		if cur[i].DeltaCompiles > prev[i].DeltaCompiles {
			deltaUs = append(deltaUs, float64(cur[i].LastDelta.Nanoseconds())/1e3)
		}
	}
	return compileMs, deltaUs
}

// setFIBLayers records the publishers' per-op counters, publish ratio,
// build times and trie size.
func setFIBLayers(lay *layers, s0, s1 fib.Stats, ops float64, compileMs, deltaUs []float64, engs []*fib.Engine) {
	full := float64(s1.Compiles - s0.Compiles)
	delta := float64(s1.DeltaCompiles - s0.DeltaCompiles)
	skipped := float64(s1.SkippedCompiles - s0.SkippedCompiles)
	lay.set("fib.full_compiles", full/ops)
	lay.set("fib.delta_compiles", delta/ops)
	lay.set("fib.skipped_flushes", skipped/ops)
	if full+delta+skipped > 0 {
		lay.set("fib.publish_ratio", (full+delta)/(full+delta+skipped))
	}
	lay.set("fib.compile_ms", quantile(compileMs, 0.5))
	lay.set("fib.delta_us", quantile(deltaUs, 0.5))
	nodes := 0
	for _, e := range engs {
		nodes += e.Publisher().Current().Nodes()
	}
	lay.set("fib.trie_nodes", float64(nodes))
}

// setConvLayers records the p50 of each convergence stage.
func setConvLayers(lay *layers, conv *telemetry.Convergence) {
	for _, st := range telemetry.ConvStages {
		lay.set("conv."+st+"_ms", conv.StageQuantile(st, 0.5)*1e3)
	}
}

// samplePrefixes draws up to n distinct prefixes.
func samplePrefixes(o *oracle, seed uint64, n int) []netip.Prefix {
	rng := rand.New(rand.NewPCG(seed, 0x5a5a))
	var out []netip.Prefix
	for _, i := range rng.Perm(len(o.prefixes))[:min(n, len(o.prefixes))] {
		out = append(out, o.prefixes[i])
	}
	return out
}

// replayRouting times the routing layers one at a time over a set of
// prefixes: the reflector's Assign for every egress router that offers
// each prefix a route, the GeoIP lookup, and the resolver at every PoP.
func replayRouting(lay *layers, w *world, prefixes []netip.Prefix) {
	type pair struct {
		router netip.Addr
		prefix netip.Prefix
	}
	var pairs []pair
	for _, p := range prefixes {
		if pi, ok := w.env.Topo.PrefixInfoFor(p); ok {
			for _, c := range w.env.Peering.Candidates(pi.Origin) {
				pairs = append(pairs, pair{c.Session.Router, p})
			}
		}
	}
	lay.set("core.assign_ns", lay.timePer("core", "GeoRR.Assign", 1e-9, len(pairs), func(i int) {
		w.env.RR.Assign(pairs[i].router, pairs[i].prefix)
	}))
	lay.set("geoip.lookup_ns", lay.timePer("geoip", "DB.LookupPrefix", 1e-9, len(prefixes), func(i int) {
		w.env.DB.LookupPrefix(prefixes[i])
	}))
	pops := w.env.Net.PoPs
	lay.set("vns.resolve_us", lay.timePer("vns", "Forwarding.Resolve", 1e-6, len(prefixes)*len(pops), func(i int) {
		w.fwd.Resolve(pops[i%len(pops)], prefixes[i/len(pops)])
	}))
}

// replayLookups times Engine.Lookup over every probe at every PoP.
func replayLookups(lay *layers, o *oracle, engs []*fib.Engine) {
	n := len(o.probe)
	lay.set("fib.lookup_ns", lay.timePer("fib", "Engine.Lookup", 1e-9, n*len(engs), func(i int) {
		engs[i/n].Lookup(o.probe[i%n])
	}))
}
