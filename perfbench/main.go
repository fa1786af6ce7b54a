// Command perfbench is the repository benchmark: it drives the simulator
// through its public entry points on four workloads, times set-up and run
// on the host clock, checks every world's outputs, and prints one JSON
// result line. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
//
// A run is a warm-up pass, which also measures each world's live heap and
// records the reference counts, then timed passes over the workload's
// worlds for --seconds; every metric is a median over the timed passes.
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the first half of the time runs untraced and the second half traced,
// under a CPU profile with spans and registry snapshots, and the result
// holds the per-layer metrics and the tracing overhead. The traced run's
// spans, profile and snapshots are written under outDir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/congestion"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// minPasses is the fewest timed passes a run makes, however long they take.
const minPasses = 5

// outDir receives the traced run's spans, CPU profile and registry
// snapshots, relative to the directory the benchmark runs in.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	name := flag.String("workload", "", "workload: pingpong, bulk, alltoall or congested")
	seed := flag.Uint64("seed", 1, "workload seed: payload patterns and the background tenant")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload pingpong|bulk|alltoall|congested --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// One P for the whole benchmark. A second P brought only goroutine
	// wake-ups, a concurrent GC worker and cross-core waits between the
	// alltoall world's two shards, which timed how a shared host schedules
	// its second core rather than the simulator. GC work runs inline and
	// shows in wall_s.
	runtime.GOMAXPROCS(1)
	if err := selfTest(*seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: self-test: %v\n", err)
		os.Exit(1)
	}

	b := &bench{specs: wl.worlds(*seed), root: -1}
	b.pass(nil) // the warm-up pass
	budget := time.Duration(*seconds * float64(time.Second))
	if *traceFlag == 1 {
		budget /= 2
	}
	untraced := b.passes(budget, nil)
	var traced []*passResult

	var metricsOut map[string]metric
	if *traceFlag == 0 {
		metricsOut = endToEnd(untraced, b.warm)
	} else {
		traced, metricsOut = b.traced(wl.name, *seed, budget, untraced)
	}

	all := append(append([]*passResult{b.warm}, untraced...), traced...)
	attempted, failed := 0, 0
	for _, p := range all {
		attempted += p.attempted
		failed += p.failed
	}
	host := map[string]any{
		"workload":   wl.name,
		"seed":       *seed,
		"go":         runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"shards":     b.shards,
		"passes":     len(all),
		"digest":     fmt.Sprintf("%016x", b.warm.counts.digest()),
	}
	emit(map[string]any{"host": host})
	walls := each(untraced, (*passResult).wall)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d untraced passes, wall_s min %.4f median %.4f max %.4f\n",
		wl.name, len(untraced), slices.Min(walls), median(walls), slices.Max(walls))
	emit(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metricsOut,
	})
}

// traced runs the traced passes under a CPU profile and returns them with
// the per-layer metrics. It writes the profile, the spans and the registry
// snapshots under outDir and prints the spans' self times.
func (b *bench) traced(workload string, seed uint64, budget time.Duration, untraced []*passResult) ([]*passResult, map[string]metric) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	tr := newTracer()
	b.root = tr.begin("workload "+workload, -1)
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		fatal(err)
	}
	traced := b.passes(budget, tr)
	tr.end(b.root)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		fatal(err)
	}
	shares, err := attribute(stem + ".cpu.pprof")
	if err != nil {
		fatal(err)
	}
	if err := tr.write(stem+".spans.jsonl", stem+".registries.json"); err != nil {
		fatal(err)
	}
	tr.printSelfTimes(os.Stderr)
	return traced, perLayer(traced, untraced, shares)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// world is one built testbed with its MPI job, background tenant and
// rank buffers, and the one-way latency a pingpong world measured.
type world struct {
	spec       *spec
	tb         *cluster.Testbed
	mw         *mpi.World
	bg         *congestion.Traffic
	send, recv []*mem.Buffer
	latency    sim.Time
	liveMB     float64 // live heap once set up
}

// phases accumulates the host seconds of one pass's set-up steps and run.
type phases struct {
	build, mpi, buffers, background, gc float64
	run, close                          float64
}

func (p *phases) setup() float64 { return p.build + p.mpi + p.buffers + p.background + p.gc }

// wall is the host time from the first Run to the last Close, without
// set-up and the checks between them.
func (p *phases) wall() float64 { return p.run + p.close }

// timed runs fn inside a span and adds its host seconds to *acc.
func timed(tr *tracer, parent int, name string, acc *float64, fn func()) {
	id := tr.begin(name, parent)
	t0 := time.Now()
	fn()
	*acc += time.Since(t0).Seconds()
	tr.end(id)
}

// build sets a world up — testbed, MPI job, buffers, background tenant —
// and starts its rank processes, ready to run. Set-up runs with the
// collector paused and ends with one timed collection, so its GC work is
// the same on every pass and the run starts from a heap that holds just
// its world. Left running, the collector's cycles fell into set-up or
// into the run depending on the pacer's timing-based estimates, and one
// cycle more or less over a large world moved a run's time by a third.
func build(s *spec, ph *phases, tr *tracer, parent int) *world {
	w := &world{spec: s}
	gcPercent := debug.SetGCPercent(-1)
	timed(tr, parent, "build", &ph.build, func() { w.tb = cluster.NewWithOptions(s.kind, s.ranks, s.opts) })
	timed(tr, parent, "mpi", &ph.mpi, func() { w.mw = mpi.NewWorld(w.tb, s.mpiCfg) })
	timed(tr, parent, "buffers", &ph.buffers, func() {
		s.prog.alloc(w)
		for r := range s.ranks {
			w.tb.Go(r, fmt.Sprintf("rank%d", r), s.prog.body(w, r))
		}
	})
	if s.bg != nil {
		timed(tr, parent, "background", &ph.background, func() { w.bg = congestion.Start(w.tb.Fabric, *s.bg) })
	}
	debug.SetGCPercent(gcPercent)
	timed(tr, parent, "gc", &ph.gc, func() { w.liveMB = liveHeapMB() })
	return w
}

// passResult is what one pass over a workload's worlds measured.
type passResult struct {
	phases
	cpu       float64 // process CPU seconds during run and close
	worldMB   float64 // largest live heap after a world's set-up
	msgs      int64
	payload   int64
	counts    counts  // summed over the pass's worlds
	mallocs   float64 // heap objects allocated during run phases
	allocMB   float64 // heap MB allocated during run phases
	gcs       float64 // GC cycles completed during run phases
	attempted int
	failed    int
}

// bench runs passes over one workload's worlds and holds the warm-up
// pass's per-world counts as the determinism reference.
type bench struct {
	specs  []*spec
	warm   *passResult
	ref    []uint64
	shards map[string]int
	root   int // the traced workload span
}

// passes runs passes until budget has elapsed and at least minPasses ran.
func (b *bench) passes(budget time.Duration, tr *tracer) []*passResult {
	var out []*passResult
	for start := time.Now(); len(out) < minPasses || time.Since(start) < budget; {
		out = append(out, b.pass(tr))
	}
	return out
}

// pass builds, runs, checks and closes every world once. The first pass
// becomes the reference every later pass's counts must equal exactly.
func (b *bench) pass(tr *tracer) *passResult {
	res := &passResult{counts: counts{}}
	pid := tr.begin("pass", b.root)
	for i, s := range b.specs {
		wid := tr.begin("world "+s.name, pid)
		runtime.GC() // every set-up starts from a collected heap
		w := build(s, &res.phases, tr, wid)
		res.worldMB = max(res.worldMB, w.liveMB)
		m0 := readRuntime()
		c0 := cpuSeconds()
		var err error
		timed(tr, wid, "run", &res.run, func() { err = w.tb.Run() })
		res.cpu += cpuSeconds() - c0
		m1 := readRuntime()
		res.mallocs += m1.mallocs - m0.mallocs
		res.allocMB += (m1.bytes - m0.bytes) / 1e6
		res.gcs += m1.gcs - m0.gcs

		var c counts
		var errs []error
		timed(tr, wid, "verify", new(float64), func() {
			c = collect(w)
			errs = check(w, err, c)
		})
		d := c.digest()
		if b.warm == nil {
			b.ref = append(b.ref, d)
		} else if d != b.ref[i] {
			errs = append(errs, fmt.Errorf("counts differ from the first pass (digest %016x, want %016x)", d, b.ref[i]))
		}
		tr.snapshot(s.name, w)
		if b.shards == nil {
			b.shards = map[string]int{}
		}
		b.shards[s.name] = w.tb.Shards()

		c0 = cpuSeconds()
		timed(tr, wid, "close", &res.close, w.tb.Close)
		res.cpu += cpuSeconds() - c0
		tr.end(wid)

		res.attempted++
		if len(errs) > 0 {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", s.name, errs)
		}
		res.counts.add(c)
		res.msgs += s.prog.msgs()
		res.payload += s.prog.payloadBytes()
	}
	tr.end(pid)
	if b.warm == nil {
		b.warm = res
	}
	return res
}

// liveHeapMB forces a collection and returns the live heap it found.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

type runtimeCounts struct{ mallocs, bytes, gcs float64 }

func readRuntime() runtimeCounts {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounts{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())}
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// med returns the median of f over the passes.
func med(ps []*passResult, f func(*passResult) float64) float64 {
	return median(each(ps, f))
}

func each(ps []*passResult, f func(*passResult) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

// endToEnd reports the untraced passes' medians and the warm-up pass's
// largest world.
func endToEnd(ps []*passResult, warm *passResult) map[string]metric {
	return map[string]metric{
		"wall_s":     {med(ps, (*passResult).wall), "s"},
		"cpu_s":      {med(ps, func(p *passResult) float64 { return p.cpu }), "s"},
		"setup_s":    {med(ps, func(p *passResult) float64 { return p.setup() }), "s"},
		"msgs_per_s": {med(ps, func(p *passResult) float64 { return float64(p.msgs) / p.wall() }), "1/s"},
		"world_mb":   {warm.worldMB, "MB"},
	}
}

// perLayer reports the traced passes' registry counts, set-up spans and
// runtime counters, the CPU profile's layer shares, and the traced over
// untraced wall time.
func perLayer(traced, untraced []*passResult, shares map[string]float64) map[string]metric {
	c := traced[0].counts
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	events := float64(c["sim.events_fired"])
	out := map[string]metric{
		"sim.events":               {events, "count"},
		"sim.ns_per_event":         {med(traced, func(p *passResult) float64 { return 1e9 * p.run / events }), "ns"},
		"sim.proc_switches":        {float64(c["sim.procs_parked"] + c["sim.procs_unparked"]), "count"},
		"fabric.frames":            {float64(c["fabric.frames_sent"]), "count"},
		"fabric.trunk_frames":      {float64(c["fabric.trunk_frames"]), "count"},
		"fabric.tail_drops":        {float64(c["net.tail_dropped"]), "count"},
		"fabric.ecn_marks":         {float64(c["net.ecn_marked"]), "count"},
		"fabric.delivered_ratio":   {ratio(c["net.delivered"]+c["net.bg_delivered"], c["fabric.frames_sent"]), "ratio"},
		"tcp.retransmissions":      {float64(c["tcp.retransmissions"]), "count"},
		"tcp.rto_fired":            {float64(c["tcp.rto_fired"]), "count"},
		"iwarp.segs_tx":            {float64(c["iwarp.segs_tx"]), "count"},
		"iwarp.rate_cuts":          {float64(c["iwarp.rate_cuts"]), "count"},
		"ib.pkts_tx":               {float64(c["ib.pkts_tx"]), "count"},
		"ib.ctx_hit_ratio":         {ratio(c["ib.ctx_hits"], c["ib.ctx_hits"]+c["ib.ctx_misses"]), "ratio"},
		"mx.eager_sent":            {float64(c["mx.eager_sent"]), "count"},
		"mx.rndv_sent":             {float64(c["mx.rndv_sent"]), "count"},
		"mem.regcache_hit_ratio":   {ratio(c["mem.regcache_hits"], c["mem.regcache_hits"]+c["mem.regcache_misses"]), "ratio"},
		"mem.pages_pinned":         {float64(c["mem.pages_pinned"]), "count"},
		"mem.payload_mb":           {float64(traced[0].payload) / 1e6, "MB"},
		"mpi.eager_sends":          {float64(c["mpi.eager_sends"]), "count"},
		"mpi.rndv_sends":           {float64(c["mpi.rndv_sends"]), "count"},
		"mpi.unexpected_matches":   {float64(c["mpi.unexpected_matches"]), "count"},
		"congestion.bg_frames":     {float64(c["congestion.bg_frames"]), "count"},
		"setup.build_s":            {med(traced, func(p *passResult) float64 { return p.build }), "s"},
		"setup.mpi_s":              {med(traced, func(p *passResult) float64 { return p.mpi }), "s"},
		"setup.buffers_s":          {med(traced, func(p *passResult) float64 { return p.buffers }), "s"},
		"setup.gc_s":               {med(traced, func(p *passResult) float64 { return p.gc }), "s"},
		"runtime.allocs_per_event": {med(traced, func(p *passResult) float64 { return p.mallocs / events }), "count"},
		"runtime.alloc_mb":         {med(traced, func(p *passResult) float64 { return p.allocMB }), "MB"},
		"runtime.gc_cycles":        {med(traced, func(p *passResult) float64 { return p.gcs }), "count"},
		"trace.overhead":           {med(traced, (*passResult).wall) / med(untraced, (*passResult).wall), "ratio"},
	}
	for _, l := range layers {
		out["cpu."+l] = metric{shares[l], "share"}
	}
	return out
}
