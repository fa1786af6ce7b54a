package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// counts is every deterministic quantity one world leaves behind: its
// registry counters summed over the world's engines, the fabric's
// conservation accessors, the background frames and the final virtual
// time. Two runs of the same code and seed must produce equal counts.
type counts map[string]int64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// digest is an order-independent hash of the counts.
func (c counts) digest() uint64 {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, c[k])
	}
	return h.Sum64()
}

// engines lists a testbed's distinct engines in host order; host 0's
// engine is the testbed's primary one.
func engines(tb *cluster.Testbed) []*sim.Engine {
	var out []*sim.Engine
	for i := range tb.Hosts {
		if e := tb.EngOf(i); !slices.Contains(out, e) {
			out = append(out, e)
		}
	}
	return out
}

// collect gathers a quiescent world's counts.
func collect(w *world) counts {
	c := counts{}
	for _, e := range engines(w.tb) {
		for k, v := range e.Metrics().Snapshot().Counters {
			c[k] += v
		}
	}
	n := w.tb.Fabric
	c["net.delivered"] = n.Delivered()
	c["net.dropped"] = n.Dropped()
	c["net.bg_delivered"] = n.BackgroundDelivered()
	c["net.tail_dropped"] = n.TailDropped()
	c["net.ecn_marked"] = n.ECNMarked()
	if w.bg != nil {
		c["congestion.bg_frames"] = w.bg.FramesSent()
	}
	c["sim.end_ps"] = int64(w.tb.Eng.Now())
	if _, ok := w.spec.prog.(*pingPong); ok {
		c["pingpong.latency_ps"] = int64(w.latency)
	}
	return c
}

// conserved checks that every frame the fabric counted as sent was
// delivered to an endpoint, dropped, or delivered as background traffic.
// It uses the Network accessors, not the registry's fabric.frames_dropped,
// which counts only fault drops.
func conserved(c counts) error {
	sent := c["fabric.frames_sent"]
	if got := c["net.delivered"] + c["net.dropped"] + c["net.bg_delivered"]; got != sent {
		return fmt.Errorf("frames sent %d != delivered %d + dropped %d + background %d",
			sent, c["net.delivered"], c["net.dropped"], c["net.bg_delivered"])
	}
	return nil
}

// anchorCheck holds a pingpong 4 B world's one-way MPI latency to the
// paper anchor of its stack; other worlds pass.
func anchorCheck(s *spec, c counts) error {
	p, ok := s.prog.(*pingPong)
	if !ok || p.size != 4 {
		return nil
	}
	name := fmt.Sprintf("MPI latency %s (4B)", s.kind)
	for _, a := range core.Anchors() {
		if a.Name != name {
			continue
		}
		got := sim.Time(c["pingpong.latency_ps"]).Micros()
		if rel := (got - a.Paper) / a.Paper; rel > a.Tolerance || rel < -a.Tolerance {
			return fmt.Errorf("%s: %.3f us outside %.3f us +/- %.0f%%", name, got, a.Paper, 100*a.Tolerance)
		}
		return nil
	}
	return fmt.Errorf("no anchor named %q", name)
}

// check applies every correctness test to a run world and returns the
// reasons it failed, if any.
func check(w *world, runErr error, c counts) []error {
	var errs []error
	if runErr != nil {
		errs = append(errs, fmt.Errorf("run: %w", runErr))
	}
	if bad := w.spec.prog.verify(w); bad > 0 {
		errs = append(errs, fmt.Errorf("%d received buffers differ from the sender's pattern", bad))
	}
	if err := conserved(c); err != nil {
		errs = append(errs, err)
	}
	if err := anchorCheck(w.spec, c); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// selfTest shows that each check trips: it runs a small clean world of
// every program, then corrupts one received byte, offsets the frame count
// by one, moves the pingpong latency off its anchor and injects a run
// error, and expects each to be reported.
func selfTest(seed uint64) error {
	cases := []*spec{
		{name: "selftest/pingpong", kind: cluster.IB, ranks: 2, opts: cluster.Options{Shards: 1},
			mpiCfg: mpi.ConfigFor(cluster.IB), prog: &pingPong{size: 4, rounds: 20, seed: seed}},
		{name: "selftest/stream", kind: cluster.IWARP, ranks: 2, opts: cluster.Options{Shards: 1},
			mpiCfg: mpi.ConfigFor(cluster.IWARP), prog: &stream{size: 64 << 10, nbufs: 2, msgCount: 3, seed: seed}},
		{name: "selftest/alltoall", kind: cluster.MXoE, ranks: 4,
			opts:   cluster.Options{Shards: 2, Topology: fabric.LeafSpine(2, 2)},
			mpiCfg: leanConfig(cluster.MXoE), prog: &allToAll{ranks: 4, size: 512, seed: seed}},
	}
	for _, s := range cases {
		w := build(s, &phases{}, nil, 0)
		err := w.tb.Run()
		c := collect(w)
		if errs := check(w, err, c); len(errs) > 0 {
			w.tb.Close()
			return fmt.Errorf("%s: clean world fails: %v", s.name, errs)
		}
		type trip struct {
			what string
			fn   func() []error
		}
		trips := []trip{
			{"corrupted byte", func() []error {
				b := w.recv[len(w.recv)-1]
				b.Bytes()[b.Len()-1] ^= 1
				defer func() { b.Bytes()[b.Len()-1] ^= 1 }()
				return check(w, nil, c)
			}},
			{"off-by-one frame count", func() []error {
				c["fabric.frames_sent"]++
				defer func() { c["fabric.frames_sent"]-- }()
				return check(w, nil, c)
			}},
			{"run error", func() []error { return check(w, errors.New("injected"), c) }},
		}
		if _, ok := s.prog.(*pingPong); ok {
			trips = append(trips, trip{"latency off its anchor", func() []error {
				saved := c["pingpong.latency_ps"]
				c["pingpong.latency_ps"] = saved * 2
				defer func() { c["pingpong.latency_ps"] = saved }()
				return check(w, nil, c)
			}})
		}
		for _, t := range trips {
			if len(t.fn()) != 1 {
				w.tb.Close()
				return fmt.Errorf("%s: check did not trip on a %s", s.name, t.what)
			}
		}
		w.tb.Close()
	}
	return nil
}
