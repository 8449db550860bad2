package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"vns/internal/bgp"
	"vns/internal/core"
	"vns/internal/rib"
	"vns/internal/vns"
)

// The wire-update workload runs the reflector over real BGP/TCP
// loopback with two egress speakers at distant PoPs, LON and SJS. The
// timed phase first downloads both full tables in chunks, then sends a
// seeded, heavy-tailed mix of withdraw and announce UPDATEs, one at a
// time (a closed loop), each timed from the write on one session to the
// last reflected prefix read on the other.

const (
	loadChunk   = 512 // prefixes per speaker per load step
	wireTimeout = 30 * time.Second
)

// updateSizes is one deck of churn UPDATE sizes (prefixes per UPDATE):
// a heavy tail of mostly single-prefix UPDATEs. Every deck entry is a
// withdraw followed by the re-announce of the same prefixes. The deck is
// assumed, not measured: no trace of UPDATE sizes is at hand. It sets
// the churn metrics directly: the 1-prefix UPDATEs (60% of the deck) set
// op_p50_ms, and the mean of 9.88 prefixes per UPDATE alloc_kb_per_op.
// The 16-prefix UPDATEs fill ranks 84–95 of a deck's 100, so the deck's
// p90 (rank 89.1), and with it op_p90_ms, is the middle of that class
// rather than the edge between two sizes.
var updateSizes = func() []int {
	var d []int
	for _, c := range []struct{ size, n int }{{1, 30}, {4, 12}, {16, 6}, {64, 1}, {256, 1}} {
		for i := 0; i < c.n; i++ {
			d = append(d, c.size)
		}
	}
	return d
}()

// expectation is what a speaker must read for one prefix.
type expectation struct {
	withdraw bool
	located  bool
	km       float64 // great-circle distance from the announcing egress
	orig     netip.Addr
}

// inbox checks a speaker's received UPDATEs against the armed
// expectation set and signals when the set is complete.
type inbox struct {
	mu      sync.Mutex
	pending map[netip.Prefix]expectation
	armed   bool
	doneAt  chan time.Time // capacity 1: one completion per armed set
	bad     string
}

func newInbox() *inbox { return &inbox{doneAt: make(chan time.Time, 1)} }

// arm installs the next expectation set, dropping a completion left
// over from a set that timed out.
func (b *inbox) arm(want map[netip.Prefix]expectation) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-b.doneAt:
	default:
	}
	b.pending, b.armed = want, true
}

// take checks one received UPDATE.
func (b *inbox) take(u bgp.Update) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range u.Withdrawn {
		e, ok := b.pending[p]
		if !ok || !e.withdraw {
			b.note("unexpected withdrawal of %v", p)
			continue
		}
		delete(b.pending, p)
	}
	for _, p := range u.NLRI {
		e, ok := b.pending[p]
		if !ok || e.withdraw {
			b.note("unexpected reflection of %v", p)
			continue
		}
		delete(b.pending, p)
		a := u.Attrs
		switch {
		case a.OriginatorID != e.orig:
			b.note("%v ORIGINATOR_ID %v, want %v", p, a.OriginatorID, e.orig)
		case e.located && (!a.HasLocalPref || !localPrefMatches(a.LocalPref, e.km)):
			b.note("%v LOCAL_PREF %d (set=%v), oracle %d at %.1f km", p, a.LocalPref, a.HasLocalPref, localPref(e.km), e.km)
		case !e.located && a.HasLocalPref:
			b.note("%v has LOCAL_PREF %d without geolocation", p, a.LocalPref)
		}
	}
	if b.armed && len(b.pending) == 0 {
		b.armed = false
		select {
		case b.doneAt <- now:
		default: // a timed-out set's completion is still unread
		}
	}
}

func (b *inbox) note(format string, args ...any) {
	if b.bad == "" {
		b.bad = fmt.Sprintf(format, args...)
	}
}

// wait returns when the armed set completes, with the time its last
// prefix was read, and any mismatch seen since the last wait.
func (b *inbox) wait() (time.Time, string) {
	select {
	case t := <-b.doneAt:
		b.mu.Lock()
		defer b.mu.Unlock()
		bad := b.bad
		b.bad = ""
		return t, bad
	case <-time.After(wireTimeout):
		b.mu.Lock()
		defer b.mu.Unlock()
		left := len(b.pending)
		b.pending, b.armed = nil, false
		return time.Time{}, fmt.Sprintf("timed out with %d prefixes still unread", left)
	}
}

// speaker is one egress router's BGP session to the reflector.
type speaker struct {
	code   string
	router netip.Addr
	pos    latLon
	sess   *bgp.Session
	in     *inbox
	done   chan struct{} // closed when the reader goroutine exits
}

// dialSpeaker connects pop's first egress router to the reflector and
// starts the goroutine that checks what the session receives; it exits
// when the session closes.
func dialSpeaker(srv *core.RRServer, pop *vns.PoP) (*speaker, error) {
	sess, err := core.DialRR(srv.Addr(), vns.ASN, pop.Routers[0])
	if err != nil {
		return nil, err
	}
	s := &speaker{code: pop.Code, router: pop.Routers[0], pos: latLon{pop.Place.Pos.Lat, pop.Place.Pos.Lon},
		sess: sess, in: newInbox(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for u := range s.sess.Updates() {
			s.in.take(u)
		}
	}()
	return s, nil
}

type wireRun struct {
	w   *world
	srv *core.RRServer
	spk [2]*speaker
}

func buildWire(cfg config) (*wireRun, error) {
	w := buildWorld(cfg)
	srv, err := core.NewRRServer("127.0.0.1:0", w.env.RR, vns.ASN, netip.MustParseAddr("10.0.0.254"))
	if err != nil {
		return nil, err
	}
	srv.SetTelemetry(w.env.Telemetry)
	srv.SetConvergence(w.fwd.Convergence())
	r := &wireRun{w: w, srv: srv}
	for i, code := range []string{"LON", "SJS"} {
		s, err := dialSpeaker(srv, w.env.Net.PoP(code))
		if err != nil {
			r.close()
			return nil, err
		}
		r.spk[i] = s
	}
	// The reflector reflects only to peers it has registered; wait for
	// both before any UPDATE is sent.
	for deadline := time.Now().Add(wireTimeout); srv.NumPeers() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.close()
			return nil, errors.New("reflector never registered both speakers")
		}
	}
	return r, nil
}

// close ends the sessions and the reflector and waits for the readers.
func (r *wireRun) close() {
	for _, s := range r.spk {
		if s != nil {
			s.sess.Close()
			<-s.done
		}
	}
	r.srv.Close()
}

// announceAttrs are a speaker's path attributes; both speakers send the
// same AS_PATH length so LOCAL_PREF alone decides the best path.
func (s *speaker) announceAttrs() bgp.Attrs {
	return bgp.Attrs{
		ASPath:  []bgp.ASPathSegment{{ASNs: []uint16{64700, 64701}}},
		NextHop: s.router,
	}
}

// reflections is what the other speaker must read after s announces ps.
func (s *speaker) reflections(o *oracle, ps []int) map[netip.Prefix]expectation {
	m := make(map[netip.Prefix]expectation, len(ps))
	for _, i := range ps {
		m[o.prefixes[i]] = expectation{located: o.located[i], km: greatCircleKm(s.pos, o.dst[i]), orig: s.router}
	}
	return m
}

// wireOp is one churn UPDATE: speaker from withdraws or re-announces
// prefixes (indexes into the oracle's list).
type wireOp struct {
	from     int
	withdraw bool
	prefixes []int
}

// churn deals one seeded deck: each size becomes a withdraw of that
// many prefixes the sender is clearly best for, then their re-announce.
func churn(rng *rand.Rand, bestOf [2][]int) []wireOp {
	var ops []wireOp
	for _, k := range shuffled(rng, updateSizes) {
		from := rng.IntN(2)
		pool := bestOf[from]
		ps := make([]int, 0, k)
		for _, j := range rng.Perm(len(pool))[:min(k, len(pool))] {
			ps = append(ps, pool[j])
		}
		if len(ps) > 0 {
			ops = append(ops, wireOp{from, true, ps}, wireOp{from, false, ps})
		}
	}
	return ops
}

func shuffled(rng *rand.Rand, xs []int) []int {
	out := append([]int(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// message builds the UPDATE for op.
func (r *wireRun) message(o *oracle, op wireOp) bgp.Update {
	ps := make([]netip.Prefix, len(op.prefixes))
	for i, j := range op.prefixes {
		ps[i] = o.prefixes[j]
	}
	if op.withdraw {
		return bgp.Update{Withdrawn: ps}
	}
	return bgp.Update{Attrs: r.spk[op.from].announceAttrs(), NLRI: ps}
}

// send writes u on from's session and waits until to has read everything
// armed; it returns the latency to the last read and any mismatch.
func send(from, to *speaker, u bgp.Update, want map[netip.Prefix]expectation) (time.Duration, string) {
	to.in.arm(want)
	t0 := time.Now()
	if err := from.sess.SendUpdate(u); err != nil {
		return 0, err.Error()
	}
	t1, bad := to.in.wait()
	if t1.IsZero() {
		return 0, bad
	}
	return t1.Sub(t0), bad
}

// load downloads both full tables, loadChunk prefixes per speaker per
// step; each step is timed until both speakers have read the other's
// reflections. The steps add to the run's route rate, not its latencies.
func (r *wireRun) load(o *oracle, rec *recorder) error {
	all := make([]int, len(o.prefixes))
	for i := range all {
		all[i] = i
	}
	for lo := 0; lo < len(all); lo += loadChunk {
		chunk := all[lo:min(lo+loadChunk, len(all))]
		ps := make([]netip.Prefix, len(chunk))
		for i, j := range chunk {
			ps[i] = o.prefixes[j]
		}
		a, b := r.spk[0], r.spk[1]
		b.in.arm(a.reflections(o, chunk))
		a.in.arm(b.reflections(o, chunk))
		t0 := time.Now()
		for _, s := range r.spk {
			msgs, err := bgp.PackUpdates(s.announceAttrs(), ps)
			if err != nil {
				return err
			}
			for _, m := range msgs {
				if err := s.sess.SendUpdate(m); err != nil {
					return err
				}
			}
		}
		ta, badA := a.in.wait()
		tb, badB := b.in.wait()
		rec.attempted++
		if bad := badA + badB; bad != "" || ta.IsZero() || tb.IsZero() {
			rec.fail("load step at prefix %d: %s", lo, bad)
			continue
		}
		end := ta
		if tb.After(end) {
			end = tb
		}
		rec.rate(float64(2*len(chunk)), end.Sub(t0))
	}
	return nil
}

func runWireUpdate(cfg config) (*result, error) {
	r, setups, err := timeSetups(cfg, func() (*wireRun, error) { return buildWire(cfg) }, (*wireRun).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	// The timed phase runs on one P. The reflector, its sessions and the
	// speakers hand each UPDATE between goroutines; with two Ps, on a
	// shared 2-vCPU host, the run's UPDATE medians varied by half from run
	// to run, and on one they did not (README.md, Findings).
	// The reflector was built on every P, so its Loc-RIB keeps one shard
	// per P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := newOracle(r.w, cfg.seed)
	// bestOf[s] holds located prefixes speaker s wins by at least two
	// LOCAL_PREF steps, so withdrawing them always moves the best path.
	var bestOf [2][]int
	for i := range o.prefixes {
		if !o.located[i] {
			continue
		}
		lp0 := localPref(greatCircleKm(r.spk[0].pos, o.dst[i]))
		lp1 := localPref(greatCircleKm(r.spk[1].pos, o.dst[i]))
		switch {
		case lp0 >= lp1+2:
			bestOf[0] = append(bestOf[0], i)
		case lp1 >= lp0+2:
			bestOf[1] = append(bestOf[1], i)
		}
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xB6F))

	var rec recorder
	var lay *layers
	if cfg.trace {
		if lay, err = startLayers(cfg); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	start := time.Now()
	if err := r.load(o, &rec); err != nil {
		return nil, err
	}
	if lay != nil {
		lay.rt = readRuntime() // per-op runtime figures cover the UPDATEs only
	}
	msgsIn := r.w.env.Telemetry.CounterVec("bgp_messages_in_total", "BGP messages received, by type", "type").With("update")
	in0 := msgsIn.Value()
	p0, _ := r.w.env.RR.Stats()
	pubs := r.w.fwd.Engines()
	s0 := sumStats(pubs)
	var sent []wireOp
	churnOps := 0
	if err := timedRounds(cfg.seconds-time.Since(start).Seconds(), &rec, func() error {
		for _, op := range churn(rng, bestOf) {
			from, to := r.spk[op.from], r.spk[1-op.from]
			u := r.message(o, op)
			want := make(map[netip.Prefix]expectation, len(op.prefixes))
			if op.withdraw {
				for _, p := range u.Withdrawn {
					want[p] = expectation{withdraw: true}
				}
			} else {
				want = from.reflections(o, op.prefixes)
			}
			var lat time.Duration
			var bad string
			rec.opWith(func() time.Duration {
				if lay != nil {
					id := lay.tr.begin(rec.attempted+1, 0, "bgp", "UPDATE to reflection")
					defer lay.tr.end(id)
				}
				lat, bad = send(from, to, u, want)
				return lat
			})
			churnOps++
			if lay != nil && len(sent) < 4096 {
				sent = append(sent, op)
			}
			if bad == "" {
				// The best path must sit with the speaker that still
				// announces the prefix.
				holder := from
				if op.withdraw {
					holder = to
				}
				for _, j := range op.prefixes {
					if b := r.srv.Best(o.prefixes[j]); b == nil || b.PeerID != holder.router {
						bad = fmt.Sprintf("best path for %v is %v, want %s", o.prefixes[j], b, holder.code)
						break
					}
				}
			}
			if bad != "" {
				rec.fail("%s UPDATE from %s: %s", map[bool]string{true: "withdraw", false: "announce"}[op.withdraw], from.code, bad)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if lay == nil {
		return endToEnd(setups, &rec, r), nil
	}
	lay.stopTimed(churnOps)
	ops := float64(max(1, churnOps))
	p1, _ := r.w.env.RR.Stats()
	lay.set("core.assign_calls", float64(p1-p0)/ops)
	lay.set("bgp.msgs_in", float64(msgsIn.Value()-in0)/ops)
	setFIBLayers(lay, s0, sumStats(pubs), ops, nil, nil, pubs)
	setConvLayers(lay, r.w.fwd.Convergence())
	replayWire(lay, r, o, sent)
	var sample []netip.Prefix
	for _, op := range sent {
		for _, i := range op.prefixes {
			if len(sample) < 512 {
				sample = append(sample, o.prefixes[i])
			}
		}
	}
	replayRouting(lay, r.w, sample)
	return lay.finish(cfg, &rec)
}

// replayWire times the codec and the Loc-RIB on the UPDATEs the run
// sent: Marshal and Unmarshal per message, and ApplyBatch of each
// UPDATE's op batch on a fresh sharded table holding both full tables.
func replayWire(lay *layers, r *wireRun, o *oracle, sent []wireOp) {
	msgs := make([]bgp.Update, len(sent))
	for i, op := range sent {
		msgs[i] = r.message(o, op)
	}
	wires := make([][]byte, len(msgs))
	lay.set("bgp.encode_us", lay.timePer("bgp", "Marshal", 1e-6, len(msgs), func(i int) {
		wires[i], _ = bgp.Marshal(msgs[i])
	}))
	lay.set("bgp.decode_us", lay.timePer("bgp", "Unmarshal", 1e-6, len(wires), func(i int) {
		_, _ = bgp.Unmarshal(wires[i])
	}))
	route := func(s *speaker, i int) *rib.Route {
		a := s.announceAttrs()
		if o.located[i] {
			a.LocalPref, a.HasLocalPref = localPref(greatCircleKm(s.pos, o.dst[i])), true
		}
		a.OriginatorID = s.router
		return &rib.Route{Prefix: o.prefixes[i], Attrs: a, PeerAS: a.FirstAS(), PeerID: s.router, PeerAddr: s.router}
	}
	t := rib.NewSharded(0)
	var full []rib.Op
	for i := range o.prefixes {
		for _, s := range r.spk {
			full = append(full, rib.Announce(route(s, i)))
		}
	}
	t.ApplyBatch(full)
	batches := make([][]rib.Op, len(sent))
	for n, op := range sent {
		s := r.spk[op.from]
		for _, i := range op.prefixes {
			if op.withdraw {
				batches[n] = append(batches[n], rib.WithdrawOp(o.prefixes[i], s.router, s.router))
			} else {
				batches[n] = append(batches[n], rib.Announce(route(s, i)))
			}
		}
	}
	lay.set("rib.apply_batch_us", lay.timePer("rib", "ShardedTable.ApplyBatch", 1e-6, len(batches), func(i int) {
		t.ApplyBatch(batches[i])
	}))
}
