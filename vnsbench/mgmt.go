package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"time"

	"vns/internal/bgp"
	"vns/internal/core"
	"vns/internal/fib"
	"vns/internal/vns"
)

// The mgmt-lookup workload drives management commands through
// core.MgmtServer.Execute — force/unforce and static/unstatic pairs,
// with a standing set of statics held — and follows every command with
// a burst of fib.Engine.Lookup calls at every PoP. Single-prefix
// resolves and copy-on-write FIB delta patches are the writes; lock-free
// lookups over the patched tries are the reads. The Loc-RIB holds one
// speaker's full table, as a deployed reflector's does, so static
// commands find their covering route the way they would in service.
//
// The command mix, the number of statics held and the burst size are
// assumed, not measured: no record of operator command rates is at hand.
// The mix's shares of force, unforce, static and unstatic set op_p50_ms
// and op_p90_ms; the statics held set the cost of every resolve; the
// burst size sets how many lookups rate_per_s is taken over.

const (
	standingStatics = 64  // statics held through the whole timed phase
	burstPerPoP     = 256 // lookups per PoP after each command
	mgmtPairs       = 4   // force and static pairs per round (2 each)
)

type mgmtRun struct {
	w    *world
	srv  *core.RRServer
	mgmt *core.MgmtServer
	spk  *speaker
}

func buildMgmt(cfg config) (*mgmtRun, error) {
	w := buildWorld(cfg)
	srv, err := core.NewRRServer("127.0.0.1:0", w.env.RR, vns.ASN, netip.MustParseAddr("10.0.0.254"))
	if err != nil {
		return nil, err
	}
	m, err := core.NewMgmtServer("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &mgmtRun{w: w, srv: srv, mgmt: m}, nil
}

func (r *mgmtRun) close() {
	if r.spk != nil {
		r.spk.sess.Close()
		<-r.spk.done
	}
	r.mgmt.Close()
	r.srv.Close()
}

// loadTable has the LON egress announce every prefix and waits until
// the reflector's Loc-RIB holds them all.
func (r *mgmtRun) loadTable(o *oracle) error {
	s, err := dialSpeaker(r.srv, r.w.env.Net.PoP("LON"))
	if err != nil {
		return err
	}
	r.spk = s
	msgs, err := bgp.PackUpdates(s.announceAttrs(), o.prefixes)
	if err != nil {
		return err
	}
	for _, m := range msgs {
		if err := s.sess.SendUpdate(m); err != nil {
			return err
		}
	}
	for deadline := time.Now().Add(wireTimeout); r.srv.NumRoutes() < len(o.prefixes); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return errors.New("reflector never ingested the full table")
		}
	}
	return nil
}

// mgmtModel is the oracle's view of the management state: which
// prefixes are forced to which PoP and which statics are held, on top
// of the geographic answer for every prefix.
type mgmtModel struct {
	o      *oracle
	geo    []want               // per universe prefix, nothing failed
	forced map[int]int          // universe index -> forced PoP
	static map[netip.Prefix]int // held static -> egress PoP
}

// expectAt is the PoP the FIB must send addr to, or ok=false when the
// oracle cannot judge it (a near-tie or no geolocation).
func (m *mgmtModel) expectAt(addr netip.Addr) (int, bool) {
	best, bestPoP := -1, 0
	for p, pop := range m.static {
		if p.Contains(addr) && p.Bits() > best {
			best, bestPoP = p.Bits(), pop
		}
	}
	cover, i, ok := m.o.universe.longest(addr, 32)
	if ok && cover.Bits() > best {
		if pop, f := m.forced[i]; f {
			return pop, true
		}
		w := m.geo[i]
		return w.pop, w.v == wantRoute
	}
	return bestPoP, best >= 0
}

// mgmtCmd is one management command with the state change it makes.
type mgmtCmd struct {
	line   string
	force  int          // universe index forced (or unforced), -1 if none
	toPoP  int          // PoP forced to / static egress PoP
	static netip.Prefix // static added or removed
	add    bool
	probe  netip.Addr // an address the command moves
}

// staticFor draws a more-specific of universe prefix i and an egress
// router at a PoP other than the one geography picks for it.
func staticFor(rng *rand.Rand, w *world, o *oracle, m *mgmtModel, i int) (netip.Prefix, netip.Addr, int) {
	p := o.prefixes[i]
	bits := min(32, p.Bits()+1+rng.IntN(max(1, 24-p.Bits())))
	sub, _ := hostIn(p, rng).Prefix(bits)
	pops := w.env.Net.PoPs
	for {
		pop := pops[rng.IntN(len(pops))]
		if pop.ID != m.geo[i].pop {
			return sub, pop.Routers[rng.IntN(len(pop.Routers))], pop.ID
		}
	}
}

// forceFor draws an egress router that offers prefix i a route at a PoP
// other than the geographic choice; ok=false when there is none.
func forceFor(rng *rand.Rand, w *world, o *oracle, m *mgmtModel, i int) (netip.Addr, int, bool) {
	pi, _ := w.env.Topo.PrefixInfoFor(o.prefixes[i])
	var opts []vns.Candidate
	for _, c := range w.env.Peering.Candidates(pi.Origin) {
		if c.Session.PoP.ID != m.geo[i].pop {
			opts = append(opts, c)
		}
	}
	if len(opts) == 0 {
		return netip.Addr{}, 0, false
	}
	c := opts[rng.IntN(len(opts))]
	return c.Session.Router, c.Session.PoP.ID, true
}

// judged are the universe prefixes the oracle can judge.
func judged(m *mgmtModel) []int {
	var out []int
	for i, w := range m.geo {
		if w.v == wantRoute {
			out = append(out, i)
		}
	}
	return out
}

// round deals one seeded round of commands: mgmtPairs/2 force/unforce
// and mgmtPairs/2 static/unstatic pairs, in a shuffled pair order.
func (r *mgmtRun) round(rng *rand.Rand, o *oracle, m *mgmtModel, pool []int) []mgmtCmd {
	var cmds []mgmtCmd
	for k := 0; k < mgmtPairs; k++ {
		i := pool[rng.IntN(len(pool))]
		if k%2 == 0 {
			router, pop, ok := forceFor(rng, r.w, o, m, i)
			if !ok {
				k--
				continue
			}
			probe := hostIn(o.prefixes[i], rng)
			if c, _, _ := o.universe.longest(probe, 32); c != o.prefixes[i] {
				k--
				continue
			}
			cmds = append(cmds,
				mgmtCmd{line: fmt.Sprintf("force %v %v", o.prefixes[i], router), force: i, toPoP: pop, add: true, probe: probe},
				mgmtCmd{line: fmt.Sprintf("unforce %v", o.prefixes[i]), force: i, probe: probe})
			continue
		}
		sub, router, pop := staticFor(rng, r.w, o, m, i)
		if _, held := m.static[sub]; held {
			k--
			continue
		}
		probe := hostIn(sub, rng)
		cmds = append(cmds,
			mgmtCmd{line: fmt.Sprintf("static %v %v", sub, router), force: -1, toPoP: pop, static: sub, add: true, probe: probe},
			mgmtCmd{line: fmt.Sprintf("unstatic %v %v", sub, router), force: -1, toPoP: pop, static: sub, probe: probe})
	}
	// Shuffle whole pairs so every add precedes its removal.
	pairs := len(cmds) / 2
	order := rng.Perm(pairs)
	out := make([]mgmtCmd, 0, len(cmds))
	for _, p := range order {
		out = append(out, cmds[2*p], cmds[2*p+1])
	}
	return out
}

// apply updates the model after a command succeeded.
func (m *mgmtModel) apply(c mgmtCmd) {
	switch {
	case c.force >= 0 && c.add:
		m.forced[c.force] = c.toPoP
	case c.force >= 0:
		delete(m.forced, c.force)
	case c.add:
		m.static[c.static] = c.toPoP
	default:
		delete(m.static, c.static)
	}
}

func runMgmtLookup(cfg config) (*result, error) {
	r, setups, err := timeSetups(cfg, func() (*mgmtRun, error) { return buildMgmt(cfg) }, (*mgmtRun).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o := newOracle(r.w, cfg.seed)
	if err := r.loadTable(o); err != nil {
		return nil, err
	}
	healthy := expectations(o, r.w.env.Net, nil, nil, false)
	reportSkips(healthy, o)
	m := &mgmtModel{o: o, geo: healthy[o.popIDs[0]], forced: map[int]int{}, static: map[netip.Prefix]int{}}
	pool := judged(m)
	if len(pool) == 0 {
		return nil, errors.New("oracle judges no prefix")
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x3A9))
	// The standing statics, and the burst addresses: universe probes
	// plus one inside every standing static.
	addrs := append([]netip.Addr(nil), o.probe...)
	for len(m.static) < standingStatics {
		i := pool[rng.IntN(len(pool))]
		sub, router, pop := staticFor(rng, r.w, o, m, i)
		if _, held := m.static[sub]; held {
			continue
		}
		if resp := r.mgmt.Execute(fmt.Sprintf("static %v %v", sub, router)); resp != "OK" {
			return nil, fmt.Errorf("standing static %v: %s", sub, resp)
		}
		m.static[sub] = pop
		addrs = append(addrs, hostIn(sub, rng))
	}
	engs := r.w.fwd.Engines()
	burst := make([]netip.Addr, burstPerPoP)
	got := make([]fibAnswer, burstPerPoP*len(engs))

	var rec recorder
	var lay *layers
	if cfg.trace {
		if lay, err = startLayers(cfg); err != nil {
			return nil, err
		}
	}
	p0, _ := r.w.env.RR.Stats()
	s0 := sumStats(engs)
	var deltaUs []float64
	var touched []netip.Prefix
	runtime.GC()
	if err := timedRounds(cfg.seconds, &rec, func() error {
		for _, c := range r.round(rng, o, m, pool) {
			var resp string
			var prev []fib.Stats
			if lay != nil {
				prev = statsOf(engs)
			}
			rec.op(func() {
				if lay != nil {
					id := lay.tr.begin(rec.attempted+1, 0, "core", "MgmtServer.Execute")
					resp = r.mgmt.Execute(c.line)
					lay.tr.end(id)
					return
				}
				resp = r.mgmt.Execute(c.line)
			})
			if lay != nil {
				_, d := compileSamples(prev, statsOf(engs))
				deltaUs = append(deltaUs, d...)
				if len(touched) < 512 {
					if c.force >= 0 {
						touched = append(touched, o.prefixes[c.force])
					} else {
						touched = append(touched, c.static)
					}
				}
			}
			if resp != "OK" {
				rec.fail("%q: %s", c.line, resp)
				continue
			}
			m.apply(c)
			// The burst: the command's own address first, then seeded
			// addresses over the whole table.
			burst[0] = c.probe
			for j := 1; j < len(burst); j++ {
				burst[j] = addrs[rng.IntN(len(addrs))]
			}
			t0 := time.Now()
			for e, eng := range engs {
				for j, a := range burst {
					got[e*len(burst)+j].nh, got[e*len(burst)+j].ok = eng.Lookup(a)
				}
			}
			rec.rate(float64(len(got)), time.Since(t0))
			if bad := m.check(burst, got, engs); bad != "" {
				rec.fail("after %q: %s", c.line, bad)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if lay == nil {
		return endToEnd(setups, &rec, r), nil
	}
	lay.stopTimed(rec.attempted)
	ops := float64(max(1, rec.attempted))
	p1, _ := r.w.env.RR.Stats()
	lay.set("core.assign_calls", float64(p1-p0)/ops)
	setFIBLayers(lay, s0, sumStats(engs), ops, nil, deltaUs, engs)
	setConvLayers(lay, r.w.fwd.Convergence())
	replayRouting(lay, r.w, touched)
	replayLookups(lay, o, engs)
	return lay.finish(cfg, &rec)
}

// check compares a burst's answers at every PoP with the model.
func (m *mgmtModel) check(burst []netip.Addr, got []fibAnswer, engs []*fib.Engine) string {
	for j, a := range burst {
		pop, ok := m.expectAt(a)
		if !ok {
			continue
		}
		for e, eng := range engs {
			ans := got[e*len(burst)+j]
			if !ans.ok || ans.nh.PoP != pop {
				return fmt.Sprintf("PoP %d looks up %v as %v ok=%v, oracle PoP %d", eng.PoP(), a, ans.nh, ans.ok, pop)
			}
		}
	}
	return ""
}
