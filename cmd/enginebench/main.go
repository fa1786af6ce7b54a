// Command enginebench measures the simulation engine's hot paths and the
// end-to-end figure-suite wall time, and writes the numbers to a JSON file
// (the committed BENCH_engine.json). `make bench` runs it; see
// docs/performance.md for how to read the output.
//
// The microbenchmark workloads mirror internal/sim/engine_bench_test.go —
// keep the loops in sync. The baseline block is the same set of workloads
// measured on the pre-overhaul engine (container/heap, closure-boxed
// events), recorded once so every later run reports its speedup against the
// same fixed reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// Result is one measured workload.
type Result struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

// Report is the BENCH_engine.json document.
type Report struct {
	// Host describes the measurement environment.
	Host struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	// Engine holds the hot-path microbenchmarks of the current engine.
	Engine map[string]Result `json:"engine"`
	// BaselinePreOverhaul is the pre-overhaul engine measured on the same
	// workloads (fixed reference, not re-measured).
	BaselinePreOverhaul map[string]Result `json:"baseline_pre_overhaul"`
	// SpeedupVsBaseline is current events/sec over baseline events/sec.
	SpeedupVsBaseline map[string]float64 `json:"speedup_vs_baseline"`
	// Figures holds end-to-end wall-clock timings of the figure suite.
	Figures struct {
		Scale             int     `json:"scale"`
		Jobs              int     `json:"jobs"`
		WallSecondsJ1     float64 `json:"wall_seconds_j1"`
		WallSecondsJN     float64 `json:"wall_seconds_jn"`
		BaselineWallSecs  float64 `json:"baseline_wall_seconds"`
		SpeedupSequential float64 `json:"speedup_sequential"`
		SpeedupAtJN       float64 `json:"speedup_at_jn"`
		BaselineScaleNote string  `json:"baseline_note"`
	} `json:"figures"`
	// ShardedWorld times ONE world split across engines by the conservative
	// parallel runtime (internal/pdes): a 64-rank MXoE Alltoall on a
	// leaf-spine fabric, at -shards 1 and -shards N. This is the
	// single-world axis of parallelism, orthogonal to the -j worker pool
	// (which runs many worlds). The host fields above are the honest context
	// for the speedup: with NumCPU < shards the shard goroutines time-slice
	// one core and the ratio reflects only the smaller per-shard event heaps,
	// not true parallel execution.
	ShardedWorld struct {
		Workload      string  `json:"workload"`
		Ranks         int     `json:"ranks"`
		Shards        int     `json:"shards"`
		WallSecondsS1 float64 `json:"wall_seconds_shards1"`
		WallSecondsSN float64 `json:"wall_seconds_shardsN"`
		Speedup       float64 `json:"speedup"`
		Identical     bool    `json:"results_identical"`
		Note          string  `json:"note"`
	} `json:"sharded_world"`
}

// baseline is the pre-overhaul engine (container/heap + any-boxed closures,
// window-resliced FIFOs) on this container, go test -bench -benchtime=2s.
var baseline = map[string]Result{
	"schedule_fire":       {NsPerEvent: 115.3, EventsPerSec: 1 / 115.3e-9, AllocsPerEvent: 1, BytesPerEvent: 48},
	"schedule_fire_depth": {NsPerEvent: 432.6, EventsPerSec: 1 / 432.6e-9, AllocsPerEvent: 1, BytesPerEvent: 48},
	"sleep_cycle":         {NsPerEvent: 1007, EventsPerSec: 1 / 1007e-9, AllocsPerEvent: 2, BytesPerEvent: 64},
	"completion_handoff":  {NsPerEvent: 2281, EventsPerSec: 1 / 2281e-9, AllocsPerEvent: 5, BytesPerEvent: 144},
	"schedule_cancel":     {NsPerEvent: 2306, EventsPerSec: 1 / 2306e-9, AllocsPerEvent: 2, BytesPerEvent: 140},
}

// baselineFiguresWall is the pre-overhaul sequential full-sweep figure-suite
// wall time on this container, in seconds.
const baselineFiguresWall = 61.3

func main() {
	out := flag.String("out", "BENCH_engine.json", "output path (- for stdout)")
	scale := flag.Int("scale", 1, "sweep thinning for the figure-suite timing (1 = full)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker count for the parallel figure timing")
	shards := flag.Int("shards", 4, "shard count for the single-world sharded timing")
	skipFigures := flag.Bool("nofigures", false, "skip the end-to-end figure-suite timings")
	flag.Parse()

	var r Report
	r.Host.GoVersion = runtime.Version()
	r.Host.GOOS = runtime.GOOS
	r.Host.GOARCH = runtime.GOARCH
	r.Host.NumCPU = runtime.NumCPU()
	r.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)

	r.Engine = map[string]Result{
		"schedule_fire":       measure(benchScheduleFire),
		"schedule_fire_depth": measure(benchScheduleFireDepth),
		"sleep_cycle":         measure(benchSleepCycle),
		"completion_handoff":  measure(benchCompletionHandoff),
		"schedule_cancel":     measure(benchScheduleCancel),
		"spawn_short":         measure(benchSpawnShort),
		"serve_cycle":         measure(benchServeCycle),
	}
	r.BaselinePreOverhaul = baseline
	r.SpeedupVsBaseline = map[string]float64{}
	//simlint:allow maporder keyed writes into a map commute; the JSON encoder sorts keys
	for name, cur := range r.Engine {
		if base, ok := baseline[name]; ok && cur.NsPerEvent > 0 {
			r.SpeedupVsBaseline[name] = base.NsPerEvent / cur.NsPerEvent
		}
	}

	if !*skipFigures {
		r.Figures.Scale = *scale
		r.Figures.Jobs = *jobs
		r.Figures.WallSecondsJ1 = timeFigures(1, *scale)
		r.Figures.WallSecondsJN = timeFigures(*jobs, *scale)
		r.Figures.BaselineWallSecs = baselineFiguresWall
		r.Figures.BaselineScaleNote = "baseline is the pre-overhaul engine, sequential, scale 1 on the same container; the catalogue has since grown (topo, faults, breakdown families), so ratios below 1 reflect a bigger catalogue, not a slower engine"
		if *scale == 1 {
			r.Figures.SpeedupSequential = baselineFiguresWall / r.Figures.WallSecondsJ1
			r.Figures.SpeedupAtJN = baselineFiguresWall / r.Figures.WallSecondsJN
		}
	}

	// The sharded world is one world, not the figure suite: it runs with or
	// without -nofigures.
	const ranks, size, iters = 64, 4096, 8
	r.ShardedWorld.Workload = "mxoe alltoall, leaf-spine 8x2, conservative parallel runtime (internal/pdes)"
	r.ShardedWorld.Ranks = ranks
	r.ShardedWorld.Shards = *shards
	s1Wall, s1Res := timeSharded(1, ranks, size, iters)
	sNWall, sNRes := timeSharded(*shards, ranks, size, iters)
	r.ShardedWorld.WallSecondsS1 = s1Wall
	r.ShardedWorld.WallSecondsSN = sNWall
	if sNWall > 0 {
		r.ShardedWorld.Speedup = s1Wall / sNWall
	}
	r.ShardedWorld.Identical = s1Res == sNRes
	if !r.ShardedWorld.Identical {
		fmt.Fprintf(os.Stderr, "enginebench: sharded world diverged: shards=1 %+v vs shards=%d %+v\n",
			s1Res, *shards, sNRes)
		os.Exit(1)
	}
	if runtime.NumCPU() < *shards {
		r.ShardedWorld.Note = fmt.Sprintf(
			"host has %d CPU(s) for %d shards: goroutines time-slice, so this ratio measures heap splitting, not parallel speedup",
			runtime.NumCPU(), *shards)
	} else {
		r.ShardedWorld.Note = "shards ran on dedicated CPUs"
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&r); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "enginebench: wrote %s\n", *out)
	}
}

// measure runs one workload through the Go benchmark machinery and converts
// the result to per-event numbers.
func measure(fn func(b *testing.B)) Result {
	res := testing.Benchmark(fn)
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	out := Result{
		NsPerEvent:     ns,
		AllocsPerEvent: float64(res.AllocsPerOp()),
		BytesPerEvent:  float64(res.AllocedBytesPerOp()),
	}
	if ns > 0 {
		out.EventsPerSec = 1e9 / ns
	}
	return out
}

// timeFigures runs the full figure catalogue once at the given worker count
// and returns the wall-clock seconds.
func timeFigures(jobs, scale int) float64 {
	parallel.SetJobs(jobs)
	start := time.Now()
	if err := core.RunAll(io.Discard, "", "", scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return time.Since(start).Seconds()
}

// timeSharded runs one 64-rank collective world at the given shard count and
// returns the wall-clock seconds plus the simulated result, so the caller can
// assert the staged runtime's identity contract on the same run it timed.
func timeSharded(shards, ranks, size, iters int) (float64, bench.ScaleResult) {
	old := bench.Shards()
	bench.SetShards(shards)
	defer bench.SetShards(old)
	start := time.Now()
	res, err := bench.AlltoallScale(cluster.MXoE, ranks, size, iters,
		bench.ScaleOpts{Topology: fabric.LeafSpine(8, 2)})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return time.Since(start).Seconds(), res
}

// The workloads below mirror internal/sim/engine_bench_test.go.

func benchScheduleFire(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(sim.Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(sim.Nanosecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchScheduleFireDepth(b *testing.B) {
	const depth = 1024
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(sim.Time(1+n%7)*sim.Nanosecond, tick)
		}
	}
	for i := 0; i < depth; i++ {
		e.After(sim.Time(i)*sim.Millisecond+sim.Second, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(sim.Nanosecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchSleepCycle(b *testing.B) {
	e := sim.NewEngine()
	e.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchCompletionHandoff(b *testing.B) {
	e := sim.NewEngine()
	q := sim.NewQueue[int](e, "hand")
	e.Go("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(sim.Nanosecond)
		}
	})
	e.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchScheduleCancel(b *testing.B) {
	e := sim.NewEngine()
	for i := 0; i < 256; i++ {
		e.After(sim.Second+sim.Time(i)*sim.Millisecond, func() {})
	}
	driver := func() {}
	n := 0
	var tick func()
	tick = func() {
		ev := e.Schedule(sim.Millisecond, driver)
		ev.Cancel()
		n++
		if n < b.N {
			e.After(sim.Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(sim.Nanosecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchSpawnShort(b *testing.B) {
	e := sim.NewEngine()
	short := func(*sim.Proc) {}
	n := 0
	var tick func()
	tick = func() {
		e.Go("short", short)
		n++
		if n < b.N {
			e.After(sim.Nanosecond, tick)
		}
	}
	e.Go("warm", short) // fill the coroutine pool before timing
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(sim.Nanosecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchServeCycle(b *testing.B) {
	e := sim.NewEngine()
	q := sim.NewQueue[int](e, "serve")
	q.Serve("server", func(*sim.Proc, int) {})
	n := 0
	var tick func()
	tick = func() {
		q.Put(n)
		n++
		if n < b.N {
			e.After(sim.Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(sim.Nanosecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
