package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// tracer records host-time spans around the benchmark's own calls into the
// simulator (pass -> world -> build / mpi / buffers / background / run /
// verify / close) and a registry snapshot per world, all in memory until
// write. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	snaps map[string]map[string]metrics.Snapshot
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), snaps: map[string]map[string]metrics.Snapshot{}}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
}

// snapshot keeps the first traced snapshot of each world's registries,
// keyed by engine (shard) index.
func (t *tracer) snapshot(world string, w *world) {
	if t == nil || t.snaps[world] != nil {
		return
	}
	per := map[string]metrics.Snapshot{}
	for i, e := range engines(w.tb) {
		per[fmt.Sprintf("shard%d", i)] = e.Metrics().Snapshot()
	}
	t.snaps[world] = per
}

// write saves the spans as JSON lines and the registry snapshots as one
// JSON object.
func (t *tracer) write(spansPath, snapsPath string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(spansPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	snaps, err := json.MarshalIndent(t.snaps, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(snapsPath, snaps, 0o644)
}

// printSelfTimes prints each span name's total self time: its duration
// minus the part its child spans cover. World spans are named per world,
// so they group by their set-up and run children.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[spanKind(s.Name)] += s.End - s.Start
		if s.Parent >= 0 {
			self[spanKind(t.spans[s.Parent].Name)] -= s.End - s.Start
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "perfbench: span self time (s):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %9.4f\n", n, self[n])
	}
}

func spanKind(name string) string {
	kind, _, _ := strings.Cut(name, " ")
	return kind
}

// layers are the CPU attribution buckets: the simulator packages a sample
// names as its innermost repro/internal frame, the Go runtime's scheduler
// and collector for samples with no such frame, and other for the rest
// (other internal packages and the benchmark's own code).
var layers = []string{
	"sim", "pdes", "fabric", "tcpsim", "iwarp", "ib", "mx", "mem", "mpi", "congestion",
	"runtime_sched", "runtime_gc", "other",
}

// attribute reads a CPU profile with the toolchain's `go tool pprof
// -traces` and returns each layer's share of the sampled CPU time.
func attribute(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return shares(out)
}

// shares parses `pprof -traces` output: samples are separated by dashed
// lines, and each starts with its value followed by the leaf frame, then
// one caller frame per line.
func shares(traces []byte) (map[string]float64, error) {
	byLayer := map[string]float64{}
	total := 0.0
	var value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[layerOf(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case len(frames) == 0 && strings.TrimSpace(line) != "" && line[0] == ' ' && len(strings.Fields(line)) >= 2:
			f := strings.Fields(line)
			v, err := parseDuration(f[0])
			if err != nil {
				continue // header lines before the first sample
			}
			value = v
			frames = append(frames, f[1])
		case len(frames) > 0 && strings.TrimSpace(line) != "":
			frames = append(frames, strings.Fields(line)[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	out := map[string]float64{}
	for _, l := range layers {
		out[l] = byLayer[l] / total
	}
	return out, nil
}

// layerOf names the layer a sample's frames (leaf first) belong to.
func layerOf(frames []string) string {
	const internal = "repro/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internal); ok {
			pkg := rest
			if i := strings.IndexByte(rest, '.'); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "other"
		}
	}
	for _, f := range frames {
		if isGC(f) {
			return "runtime_gc"
		}
	}
	return "runtime_sched"
}

func isGC(frame string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.GC", "runtime.(*gcWork)", "runtime.(*sweepLocked)"} {
		if strings.HasPrefix(frame, p) {
			return true
		}
	}
	return false
}

// parseDuration reads pprof's sample values: a number with a time unit.
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("no time unit in %q", s)
}
