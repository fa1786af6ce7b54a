package mpi

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestEagerWorldHoldsFewCoroutines pins the process cost model on the
// paper's multi-connection shape: an eagerly wired 32-rank iWARP world has a
// control and a data QP per peer, each with receive, fetch and emit
// processes, but those are queue servers that hold a coroutine only while
// items wait. Building the world must not start a coroutine per QP process
// (about 6,000 here), and after an Alltoall through every QP, Close must
// release every coroutine, the pooled ones included.
func TestEagerWorldHoldsFewCoroutines(t *testing.T) {
	const ranks = 32
	base := runtime.NumGoroutine()
	tb := cluster.New(cluster.IWARP, ranks)
	cfg := lazyConfig(cluster.IWARP)
	cfg.LazyConnect = false
	w := NewWorld(tb, cfg)
	if w.ConnectedPairs() != ranks*(ranks-1)/2 {
		t.Fatalf("eager world wired %d pairs, want %d", w.ConnectedPairs(), ranks*(ranks-1)/2)
	}
	if grew := runtime.NumGoroutine() - base; grew > 2*ranks+8 {
		t.Errorf("building a %d-rank eager world started %d coroutines, want at most %d", ranks, grew, 2*ranks+8)
	}
	for r := 0; r < ranks; r++ {
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(ranks * 64)
			p.Alltoall(pr, buf, buf, 64)
		})
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	// At most: a goroutine left over from an earlier test may end meanwhile.
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("goroutines after Close = %d, want at most %d", got, base)
	}
}
