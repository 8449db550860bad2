package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A traced run repeats the workload with spans around every call the
// benchmark makes into a layer, reads the program's own counters after
// each operation, replays recorded inputs through single layers once
// the timed phase is over, and profiles the timed phase's CPU. Nothing
// is added inside the program.

// span is one timed call into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: root
	Trace  int     `json:"trace"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(trace, parent int, layer, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace,
		Layer: layer, Name: name, Start: time.Since(t.t0).Seconds(),
	})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	return s.End - s.Start
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Layer] += s.End - s.Start - child[s.ID]
	}
	return self
}

// write stores the spans as JSON lines and a self-time summary.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	for _, s := range t.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "vnsbench: trace self time %-8s %.3fs\n", n, self[n])
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layerMetric is one per-layer metric. A layer a workload never calls
// reads 0 on it.
type layerMetric struct{ name, unit string }

// layerMetrics is the per-layer set every traced run reports.
var layerMetrics = []layerMetric{
	{"health.apply_ms", "ms"},
	{"core.assign_calls", "calls/op"},
	{"core.assign_ns", "ns"},
	{"geoip.lookup_ns", "ns"},
	{"vns.resolve_us", "us"},
	{"bgp.encode_us", "us"},
	{"bgp.decode_us", "us"},
	{"bgp.msgs_in", "msgs/op"},
	{"rib.apply_batch_us", "us"},
	{"fib.full_compiles", "1/op"},
	{"fib.delta_compiles", "1/op"},
	{"fib.skipped_flushes", "1/op"},
	{"fib.publish_ratio", "ratio"},
	{"fib.compile_ms", "ms"},
	{"fib.delta_us", "us"},
	{"fib.trie_nodes", "count"},
	{"fib.lookup_ns", "ns"},
	{"conv.ingest_ms", "ms"},
	{"conv.select_ms", "ms"},
	{"conv.georr_ms", "ms"},
	{"conv.fib_compile_ms", "ms"},
	{"conv.forwarding_ms", "ms"},
	{"cpu.vns_s", "s"},
	{"cpu.core_s", "s"},
	{"cpu.geoip_s", "s"},
	{"cpu.geo_s", "s"},
	{"cpu.rib_s", "s"},
	{"cpu.bgp_s", "s"},
	{"cpu.fib_s", "s"},
	{"cpu.flowsim_s", "s"},
	{"cpu.netsim_s", "s"},
	{"cpu.runtime.gc_s", "s"},
	{"runtime.gc_cycles", "1/op"},
	{"runtime.gc_pause_ms", "ms/op"},
	{"runtime.alloc_mb", "MB/op"},
	{"flowsim.slice_ms", "ms"},
	{"netsim.drops", "pkts/op"},
}

// layers gathers a traced run's per-layer values.
type layers struct {
	vals map[string]float64
	tr   *tracer
	prof *profiler
	rt   runtimeCounters
}

// startLayers begins tracing the timed phase: spans, the CPU profile
// and the runtime counters.
func startLayers(cfg config) (*layers, error) {
	l := &layers{vals: map[string]float64{}, tr: newTracer()}
	p, err := startProfile(filepath.Join(cfg.outDir, cfg.workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	l.prof = p
	runtime.GC()
	l.rt = readRuntime()
	return l, nil
}

// stopTimed ends the timed phase: it stops the profile and turns the
// runtime counters into per-op figures over ops operations.
func (l *layers) stopTimed(ops int) {
	pprof.StopCPUProfile()
	l.prof.stop()
	d := readRuntime().minus(l.rt)
	n := float64(max(1, ops))
	l.vals["runtime.gc_cycles"] = float64(d.gcCycles) / n
	l.vals["runtime.gc_pause_ms"] = float64(d.pauseNs) / 1e6 / n
	l.vals["runtime.alloc_mb"] = float64(d.allocB) / (1 << 20) / n
}

// set records one per-layer value.
func (l *layers) set(name string, v float64) { l.vals[name] = v }

// timePer runs fn n times in a span and returns the mean time per call
// in the given unit (1e-9 for ns, 1e-6 for us).
func (l *layers) timePer(layer, name string, unit float64, n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	id := l.tr.begin(0, 0, layer, name)
	for i := 0; i < n; i++ {
		fn(i)
	}
	return l.tr.end(id) / float64(n) / unit
}

// finish writes the spans, reads the profile and assembles the result.
func (l *layers) finish(cfg config, r *recorder) (*result, error) {
	if err := l.tr.write(filepath.Join(cfg.outDir, cfg.workload+".spans.jsonl")); err != nil {
		return nil, err
	}
	cpu, err := l.prof.modules()
	if err != nil {
		return nil, err
	}
	for mod, s := range cpu {
		l.vals["cpu."+mod+"_s"] = s
	}
	ms := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		ms[m.name] = metric{l.vals[m.name], m.unit}
	}
	return r.result(ms), nil
}

// runtimeCounters are the Go runtime's cumulative GC and allocation
// counts.
type runtimeCounters struct{ gcCycles, pauseNs, allocB uint64 }

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{uint64(ms.NumGC), ms.PauseTotalNs, ms.TotalAlloc}
}

func (a runtimeCounters) minus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.gcCycles - b.gcCycles, a.pauseNs - b.pauseNs, a.allocB - b.allocB}
}

// profiler owns the timed phase's CPU profile file.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

func (p *profiler) stop() {
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
}

// profiledModules are the packages whose CPU time is reported, keyed
// by the package path prefix of their functions.
var profiledModules = []string{"vns", "core", "geoip", "geo", "rib", "bgp", "fib", "flowsim", "netsim"}

// modules reads the profile's sample stacks with the toolchain's pprof
// and charges each sample to the innermost frame of a profiled module,
// so runtime helpers a module calls (allocation, map access, copying)
// count as that module's time. Samples in the collector's background or
// assist work are charged to runtime.gc; the rest go uncounted.
func (p *profiler) modules() (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", p.path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	res := map[string]float64{"runtime.gc": 0}
	for _, m := range profiledModules {
		res[m] = 0
	}
	var value float64
	var frames []string
	flush := func() {
		res[chargeTo(frames)] += value
		value, frames = 0, frames[:0]
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if len(f) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if len(f) == 2 {
			if v, ok := parseSeconds(f[0]); ok && len(frames) == 0 {
				value = v
				frames = append(frames, f[1])
				continue
			}
		}
		frames = append(frames, f[len(f)-1])
	}
	flush()
	delete(res, "")
	return res, sc.Err()
}

// chargeTo names the module a sample stack (leaf first) is charged to,
// or "" for none.
func chargeTo(frames []string) string {
	for _, fn := range frames {
		if fn == "runtime.gcBgMarkWorker" || fn == "runtime.gcAssistAlloc" {
			return "runtime.gc"
		}
	}
	for _, fn := range frames {
		for _, m := range profiledModules {
			if strings.HasPrefix(fn, "vns/internal/"+m+".") {
				return m
			}
		}
	}
	return ""
}

// parseSeconds reads a pprof duration such as "1.23s", "40ms" or "0".
func parseSeconds(s string) (float64, bool) {
	if s == "0" {
		return 0, true
	}
	for _, u := range []struct {
		suf   string
		scale float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}, {"min", 60}, {"h", 3600}} {
		if strings.HasSuffix(s, u.suf) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suf), 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}
