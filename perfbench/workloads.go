package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/iwarp"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// A workload is a fixed list of worlds; one pass builds, runs, checks and
// closes each of them in turn, one world at a time. Every rank is a closed
// loop: it issues its next MPI operation only when the previous one has
// completed.
type workload struct {
	name   string
	worlds func(seed uint64) []*spec
}

// spec is one world of a workload: the testbed options, the MPI profile,
// the optional background tenant and the rank program.
type spec struct {
	name   string
	kind   cluster.Kind
	ranks  int
	opts   cluster.Options
	mpiCfg mpi.Config
	bg     *congestion.TrafficConfig
	prog   program
}

// program is what the ranks of one world do; its buffers live in the
// world, so nothing of a closed world outlives it. alloc allocates and
// fills the rank buffers (set-up); body returns rank r's closed loop;
// verify checks the received payloads after the run and returns the number
// of bad buffers.
type program interface {
	alloc(w *world)
	body(w *world, r int) func(pr *sim.Proc)
	verify(w *world) int
	msgs() int64         // MPI point-to-point messages completed per run
	payloadBytes() int64 // bytes those messages carry
}

var workloads = []workload{
	{
		// Tiny payloads on warm buffers: the per-message cost is engine
		// dispatch and process switches.
		name: "pingpong",
		worlds: func(seed uint64) []*spec {
			var out []*spec
			for _, kind := range cluster.Kinds {
				for _, size := range []int{4, 64, 1 << 10, 8 << 10} {
					out = append(out, &spec{
						name:   fmt.Sprintf("pingpong/%s/%dB", kind, size),
						kind:   kind,
						ranks:  2,
						opts:   cluster.Options{Shards: 1},
						mpiCfg: mpi.ConfigFor(kind),
						prog:   &pingPong{size: size, rounds: pingPongRounds, seed: seed},
					})
				}
			}
			return out
		},
	},
	{
		// Bytes, not messages: rendezvous, registration-cache misses,
		// per-segment NIC paths and payload copies.
		name: "bulk",
		worlds: func(seed uint64) []*spec {
			var out []*spec
			for _, kind := range cluster.Kinds {
				for _, size := range []int{256 << 10, 1 << 20, 4 << 20} {
					out = append(out, &spec{
						name:   fmt.Sprintf("bulk/%s/%dKB", kind, size>>10),
						kind:   kind,
						ranks:  2,
						opts:   cluster.Options{Shards: 1},
						mpiCfg: mpi.ConfigFor(kind),
						prog:   &stream{size: size, nbufs: bulkBuffers, msgCount: bulkMessages, seed: seed},
					})
				}
			}
			return out
		},
	},
	{
		// One large sharded world: a deep event heap, trunk contention,
		// pdes barriers and handoffs between two shards, and a large world
		// to build. The shards take turns on the benchmark's single P (see
		// main), so the run times the protocol's work rather than how a
		// shared host schedules two cores.
		name: "alltoall",
		worlds: func(seed uint64) []*spec {
			return []*spec{{
				name:   "alltoall/MXoE/128x4KB",
				kind:   cluster.MXoE,
				ranks:  128,
				opts:   cluster.Options{Shards: 2, Topology: fabric.LeafSpine(hostsPerLeaf, 4)},
				mpiCfg: leanConfig(cluster.MXoE),
				prog:   &allToAll{ranks: 128, size: 4 << 10, seed: seed},
			}}
		},
	},
	{
		// Bounded queues, ECN marks, tail drops, DCQCN rate cuts and
		// NewReno loss recovery under an incast tenant at load 0.3.
		name: "congested",
		worlds: func(seed uint64) []*spec {
			opts := cluster.Options{
				Shards:     1,
				Topology:   fabric.LeafSpine(hostsPerLeaf, 4),
				Congestion: &fabric.CongestionConfig{QueueCapBytes: 256 << 10, ECNMarkBytes: 32 << 10},
			}
			nic := iwarp.DefaultConfig()
			rc := congestion.DefaultRateConfig(cluster.FabricConfig(cluster.IWARP).LinkRate)
			nic.DCQCN = &rc
			opts.IWARP = &nic
			var out []*spec
			for t := range congestedTenants {
				out = append(out, &spec{
					name:   fmt.Sprintf("congested/iWARP/32x512B/tenant%d", t),
					kind:   cluster.IWARP,
					ranks:  32,
					opts:   opts,
					mpiCfg: leanConfig(cluster.IWARP),
					bg:     &congestion.TrafficConfig{Shape: congestion.Incast, Load: 0.3, Seed: splitmix(seed + uint64(t))},
					prog:   &allToAll{ranks: 32, size: 512, seed: seed},
				})
			}
			return out
		},
	},
}

// Sizes of the runs, fixed so every pass of a workload does the same work.
const (
	pingPongRounds = 400 // timed round trips per pingpong world
	pingPongWarmup = 2   // untimed round trips before them
	bulkBuffers    = 16  // rotating buffers per rank (no re-use)
	bulkMessages   = 32  // streamed messages per bulk world: every buffer twice
	// congestedTenants is the number of congested worlds per pass, each
	// with its own tenant seed drawn from the workload seed: how much the
	// aggressor slows one Alltoall depends on where its incast victims
	// land, so a pass averages over several draws. Each world runs a
	// single Alltoall because a second one, issued into the storm the
	// first has built, varies several times more from seed to seed.
	congestedTenants = 6
	hostsPerLeaf     = 8 // leaf radix of the leaf-spine worlds
)

// leanConfig is the MPI profile of the many-rank worlds, rebuilt from the
// public per-stack profile: at most 4 eager credits per peer and a 2 KB
// eager threshold, since the bounce rings are real memory and credits x
// peers x threshold would dwarf a 128-rank world. Every pair of an
// Alltoall communicates, so verbs pairs are wired at MPI_Init, in set-up,
// not lazily inside the run.
func leanConfig(kind cluster.Kind) mpi.Config {
	cfg := mpi.ConfigFor(kind)
	cfg.EagerCredits = min(cfg.EagerCredits, 4)
	cfg.EagerThreshold = min(cfg.EagerThreshold, 2<<10)
	return cfg
}

// splitmix is the SplitMix64 finalizer; fillSeed derives the payload
// pattern of one (rank, buffer) from the workload seed with it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fillSeed(seed uint64, rank, buf int) byte {
	return byte(splitmix(seed ^ uint64(rank)<<32 ^ uint64(buf)))
}

// shifted returns the Fill seed whose pattern at offset dst equals the
// pattern of Fill(seed) at offset src: mem.Buffer patterns depend on the
// absolute offset, and collectives move blocks between offsets.
func shifted(seed byte, src, dst int) byte {
	return seed + byte(src*131) - byte(dst*131)
}

// pingPong: rank 0 sends size bytes and waits for rank 1's reply, rounds
// times after a short warm-up, each side reusing one send and one receive
// buffer. It records the one-way latency in the world for the anchor
// check.
type pingPong struct {
	size, rounds int
	seed         uint64
}

func (p *pingPong) alloc(w *world) {
	for r := range 2 {
		m := w.tb.Hosts[r].Mem
		w.send = append(w.send, m.Alloc(p.size))
		w.send[r].Fill(fillSeed(p.seed, r, 0))
		w.recv = append(w.recv, m.Alloc(p.size))
	}
}

func (p *pingPong) body(w *world, r int) func(pr *sim.Proc) {
	proc, peer := w.mw.Rank(r), 1-r
	return func(pr *sim.Proc) {
		proc.Barrier(pr)
		var start sim.Time
		for i := 0; i < pingPongWarmup+p.rounds; i++ {
			if i == pingPongWarmup && r == 0 {
				start = proc.Wtime(pr)
			}
			if r == 0 {
				proc.Send(pr, peer, 1, w.send[r], 0, p.size)
				proc.Recv(pr, peer, 2, w.recv[r], 0, p.size)
			} else {
				proc.Recv(pr, peer, 1, w.recv[r], 0, p.size)
				proc.Send(pr, peer, 2, w.send[r], 0, p.size)
			}
		}
		if r == 0 {
			w.latency = (proc.Wtime(pr) - start) / sim.Time(2*p.rounds)
		}
	}
}

func (p *pingPong) verify(w *world) int {
	bad := 0
	for r := range 2 {
		if !w.recv[r].Equal(fillSeed(p.seed, 1-r, 0), 0, p.size) {
			bad++
		}
	}
	return bad
}

func (p *pingPong) msgs() int64         { return int64(2 * (pingPongWarmup + p.rounds)) }
func (p *pingPong) payloadBytes() int64 { return p.msgs() * int64(p.size) }

// stream: rank 0 sends msgCount blocking messages to rank 1, both sides
// rotating through nbufs buffers, so the registration cache and the page
// touches see a new buffer each time (the fig6 no-re-use pattern).
type stream struct {
	size, nbufs, msgCount int
	seed                  uint64
}

func (s *stream) alloc(w *world) {
	for i := range s.nbufs {
		w.send = append(w.send, w.tb.Hosts[0].Mem.Alloc(s.size))
		w.send[i].Fill(fillSeed(s.seed, 0, i))
		w.recv = append(w.recv, w.tb.Hosts[1].Mem.Alloc(s.size))
	}
}

func (s *stream) body(w *world, r int) func(pr *sim.Proc) {
	proc := w.mw.Rank(r)
	return func(pr *sim.Proc) {
		for i := 0; i < s.msgCount; i++ {
			if r == 0 {
				proc.Send(pr, 1, 1, w.send[i%s.nbufs], 0, s.size)
			} else {
				proc.Recv(pr, 0, 1, w.recv[i%s.nbufs], 0, s.size)
			}
		}
	}
}

// verify checks the last message written into each receive buffer.
func (s *stream) verify(w *world) int {
	bad := 0
	for i, b := range w.recv[:min(s.nbufs, s.msgCount)] {
		if !b.Equal(fillSeed(s.seed, 0, i), 0, s.size) {
			bad++
		}
	}
	return bad
}

func (s *stream) msgs() int64         { return int64(s.msgCount) }
func (s *stream) payloadBytes() int64 { return s.msgs() * int64(s.size) }

// allToAll: every rank runs one Alltoall of size bytes per pair, then
// stops its port's background generator, if any.
type allToAll struct {
	ranks, size int
	seed        uint64
}

func (a *allToAll) alloc(w *world) {
	for r := range a.ranks {
		m := w.tb.Hosts[r].Mem
		w.send = append(w.send, m.Alloc(a.ranks*a.size))
		w.send[r].Fill(fillSeed(a.seed, r, 0))
		w.recv = append(w.recv, m.Alloc(a.ranks*a.size))
	}
}

func (a *allToAll) body(w *world, r int) func(pr *sim.Proc) {
	proc := w.mw.Rank(r)
	return func(pr *sim.Proc) {
		proc.Alltoall(pr, w.send[r], w.recv[r], a.size)
		if w.bg != nil {
			w.bg.Stop(fabric.NodeID(r))
		}
	}
}

// verify checks every block: rank src's block for rank dst sits at offset
// dst*size of src's send buffer and lands at offset src*size of dst's
// receive buffer.
func (a *allToAll) verify(w *world) int {
	bad := 0
	for dst := range a.ranks {
		for src := range a.ranks {
			seed := shifted(fillSeed(a.seed, src, 0), dst*a.size, src*a.size)
			if !w.recv[dst].Equal(seed, src*a.size, a.size) {
				bad++
			}
		}
	}
	return bad
}

func (a *allToAll) msgs() int64 {
	return int64(a.ranks) * int64(a.ranks-1)
}
func (a *allToAll) payloadBytes() int64 { return a.msgs() * int64(a.size) }
