package main

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"vns/internal/experiments"
	"vns/internal/fib"
	"vns/internal/geoip"
	"vns/internal/vns"
)

// world is the seeded 2500-AS environment the root benches use, with
// its per-PoP forwarding plane compiled. FIB publishers flush
// synchronously (Debounce 0), so a control-plane call returns only
// after every PoP's FIB is republished.
type world struct {
	env *experiments.Env
	fwd *vns.Forwarding
}

// buildWorld assembles the environment and the forwarding plane. A
// traced run passes a wall ConvergenceClock so the convergence stage
// histograms carry real durations.
func buildWorld(cfg config) *world {
	env := experiments.NewEnv(experiments.Config{NumAS: cfg.numAS})
	fc := vns.ForwardingConfig{}
	if cfg.trace {
		t0 := time.Now()
		fc.ConvergenceClock = func() float64 { return time.Since(t0).Seconds() }
	}
	return &world{env: env, fwd: env.Forwarding(fc)}
}

// oracle holds the benchmark's independent view of the world: every
// prefix's geolocation, the PoPs that offer it a route, and a seeded
// probe address inside it.
type oracle struct {
	prefixes []netip.Prefix
	universe prefixSet // prefix -> index into prefixes
	located  []bool
	dst      []latLon
	cands    [][]candidatePoP
	// probe[i] is a seeded host address inside prefixes[i]; owner[i] is
	// the index of the longest universe prefix holding it (a
	// more-specific may sit inside prefixes[i]).
	probe  []netip.Addr
	owner  []int
	popIDs []int
	popPos map[int]latLon
}

// newOracle reads the world's inputs — prefix list, GeoIP records, PoP
// sites and route offers — and nothing the program computes from them.
func newOracle(w *world, seed uint64) *oracle {
	env := w.env
	o := &oracle{universe: prefixSet{}, popPos: map[int]latLon{}}
	for _, p := range env.Net.PoPs {
		o.popIDs = append(o.popIDs, p.ID)
		o.popPos[p.ID] = latLon{p.Place.Pos.Lat, p.Place.Pos.Lon}
	}
	records := prefixSet{}
	var recPos []latLon
	env.DB.Walk(func(r geoip.Record) bool {
		records[r.Prefix] = len(recPos)
		recPos = append(recPos, latLon{r.Pos.Lat, r.Pos.Lon})
		return true
	})
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for i := range env.Topo.Prefixes {
		pi := &env.Topo.Prefixes[i]
		o.universe[pi.Prefix] = len(o.prefixes)
		o.prefixes = append(o.prefixes, pi.Prefix)
		// The reflector geolocates a prefix by the record covering its
		// first address.
		_, ri, ok := records.longest(pi.Prefix.Addr(), 32)
		o.located = append(o.located, ok)
		if ok {
			o.dst = append(o.dst, recPos[ri])
		} else {
			o.dst = append(o.dst, latLon{})
		}
		seen := map[int]bool{}
		var cs []candidatePoP
		for _, c := range env.Peering.Candidates(pi.Origin) {
			id := c.Session.PoP.ID
			if !seen[id] {
				seen[id] = true
				cs = append(cs, candidatePoP{id, o.popPos[id]})
			}
		}
		o.cands = append(o.cands, cs)
		o.probe = append(o.probe, hostIn(pi.Prefix, rng))
	}
	for _, a := range o.probe {
		_, idx, _ := o.universe.longest(a, 32)
		o.owner = append(o.owner, idx)
	}
	return o
}

// hostIn draws an address inside p.
func hostIn(p netip.Prefix, rng *rand.Rand) netip.Addr {
	b := p.Masked().Addr().As4()
	base := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	if span := uint64(1) << (32 - p.Bits()); span > 1 {
		base += uint32(rng.Uint64N(span))
	}
	return netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base)})
}

// expect is the oracle's answer for prefix i when only the PoPs usable
// admits may carry traffic.
func (o *oracle) expect(i int, usable func(int) bool) (int, verdict) {
	return nearestUsable(o.dst[i], o.located[i], o.cands[i], usable)
}

// fibAnswer is one PoP's FIB answer for one probe.
type fibAnswer struct {
	nh fib.NextHop
	ok bool
}

// snapshot reads every PoP's FIB answer for every probe, by PoP id.
func (o *oracle) snapshot(w *world) map[int][]fibAnswer {
	out := make(map[int][]fibAnswer, len(o.popIDs))
	for _, id := range o.popIDs {
		eng := w.fwd.EngineByID(id)
		ans := make([]fibAnswer, len(o.probe))
		for i, a := range o.probe {
			ans[i].nh, ans[i].ok = eng.Lookup(a)
		}
		out[id] = ans
	}
	return out
}
