package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// A process costs a coroutine only while it runs: Go borrows one from the
// engine's pool and returns it when the function ends, and a queue server
// (Queue.Serve) borrows one only while items wait. These tests pin that the
// pooling is invisible to the simulation — a served queue fires the same
// events in the same order as a Get loop — and that it keeps what it
// promises about coroutines, failures and Close.

// coroutines counts the coroutines e holds: those bound to live processes
// plus the idle ones in its pool. Goroutine counts alone cannot show reuse
// exactly, because goroutines of earlier tests may still be exiting.
func (e *Engine) coroutines() int {
	n := len(e.idle)
	for _, p := range e.procs {
		if p.co != nil {
			n++
		}
	}
	return n
}

// twinStep is one entry of a pre-drawn Put schedule: at time at, put n
// consecutive items from one event.
type twinStep struct {
	at Time
	n  int
}

// twinWorld builds one side of the served-vs-Get-loop comparison. The
// consumer's handler exercises every way a queue consumer can interact with
// the engine: it sleeps, contends for a Resource with another process, and
// puts follow-up items into its own queue. A plain event at every Put instant
// logs when it fires relative to the consumer. Items may also wait before
// the consumer exists and, with early set, before its first dispatch.
func twinWorld(serve, early bool, steps []twinStep, hog []Time, log *[]string) *Engine {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	res := NewResource(e, "bus", 1)
	handle := func(p *Proc, v int) {
		*log = append(*log, fmt.Sprintf("got %d @%v", v, p.Now()))
		switch v % 4 {
		case 1:
			p.Sleep(Time(v%7) * Nanosecond)
		case 2:
			res.Acquire(p, 1)
			p.Sleep(3 * Nanosecond)
			res.Release(1)
		case 3:
			if v < 1000 {
				q.Put(v + 1000)
			}
		}
		*log = append(*log, fmt.Sprintf("done %d @%v", v, p.Now()))
	}
	q.Put(-1) // queued before the consumer exists
	if serve {
		q.Serve("consumer", handle)
	} else {
		e.Go("consumer", func(p *Proc) {
			for {
				handle(p, q.Get(p))
			}
		})
	}
	e.Go("hog", func(p *Proc) {
		for i, d := range hog {
			res.Acquire(p, 1)
			*log = append(*log, fmt.Sprintf("hog %d @%v", i, p.Now()))
			p.Sleep(d)
			res.Release(1)
			p.Sleep(d / 2)
		}
	})
	if early {
		q.Put(-2) // queued before the consumer's first dispatch
	}
	next := 0
	for i, s := range steps {
		i, s := i, s
		first := next
		next += s.n
		e.At(s.at, func() {
			for k := 0; k < s.n; k++ {
				q.Put(first + k)
			}
		})
		e.At(s.at, func() { *log = append(*log, fmt.Sprintf("tick %d @%v", i, e.Now())) })
	}
	return e
}

func TestServeMatchesGetLoop(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		var steps []twinStep
		at := Time(0)
		for i := 0; i < 60; i++ {
			if rng.Intn(3) > 0 { // often several steps at one instant
				at += Time(rng.Intn(40)) * Nanosecond
			}
			steps = append(steps, twinStep{at: at, n: 1 + rng.Intn(4)})
		}
		hog := make([]Time, 30)
		for i := range hog {
			hog[i] = Time(1+rng.Intn(20)) * Nanosecond
		}
		var served, looped []string
		early := seed%2 == 0
		a := twinWorld(true, early, steps, hog, &served)
		b := twinWorld(false, early, steps, hog, &looped)
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		for i := range min(len(served), len(looped)) {
			if served[i] != looped[i] {
				t.Fatalf("seed %d: served queue diverges from the Get loop at step %d: %q, want %q",
					seed, i, served[i], looped[i])
			}
		}
		if len(served) != len(looped) {
			t.Fatalf("seed %d: served queue logged %d steps, Get loop %d", seed, len(served), len(looped))
		}
		if a.Now() != b.Now() {
			t.Errorf("seed %d: served world ends at %v, Get loop at %v", seed, a.Now(), b.Now())
		}
		// Same events, not only the same log: the server's registration
		// and wake-ups consume the sequence numbers the loop's first
		// dispatch and unparks did.
		fa := a.Metrics().Snapshot().Counters["sim.events_fired"]
		fb := b.Metrics().Snapshot().Counters["sim.events_fired"]
		if fa != fb {
			t.Errorf("seed %d: served world fired %d events, Get loop %d", seed, fa, fb)
		}
		if len(served) < 2*(2+len(steps)) {
			t.Fatalf("seed %d: only %d log lines", seed, len(served))
		}
		a.Close()
		b.Close()
	}
}

func TestSequentialProcsReuseOneCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	const n = 10000
	fired, worst := 0, 0
	e.Go("driver", func(p *Proc) {
		for i := 0; i < n; i++ {
			child := e.Go("short", func(*Proc) {})
			child.Done().Wait(p)
			if child.Done().Fired() {
				fired++
			}
			worst = max(worst, runtime.NumGoroutine()-base)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != n {
		t.Errorf("Done fired for %d of %d short procs", fired, n)
	}
	// The driver's coroutine plus one pooled coroutine the children share.
	if worst > 2 {
		t.Errorf("%d sequential procs held up to %d coroutines, want at most 2", n, worst)
	}
	if got := e.Metrics().Snapshot().Counters["sim.procs_started"]; got != n+1 {
		t.Errorf("procs_started = %d, want %d", got, n+1)
	}
	e.Close()
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("goroutines after Close = %d, want at most %d: pooled coroutines leaked", got, base)
	}
}

func TestPanicInReusedCoroutineNamesItsProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	defer e.Close()
	e.Go("first", func(p *Proc) { p.Sleep(Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.idle) != 1 {
		t.Fatalf("%d pooled coroutines after the first proc ended, want 1", len(e.idle))
	}
	e.Go("second", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom in a reused coroutine")
	})
	if len(e.idle) != 0 || e.coroutines() != 1 {
		t.Fatalf("second proc did not reuse the pooled coroutine: %d idle, %d held", len(e.idle), e.coroutines())
	}
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `proc "second" panicked: boom in a reused coroutine`) {
		t.Fatalf("Run error = %v, want the second proc's panic", err)
	}
	if strings.Contains(err.Error(), `"first"`) {
		t.Errorf("panic blamed on the coroutine's previous proc: %v", err)
	}
	// A panic ends the coroutine instead of returning it to the pool.
	if n := e.coroutines(); n != 0 {
		t.Errorf("engine holds %d coroutines after the panic, want 0", n)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("goroutines after the panic = %d, want at most %d", got, base)
	}
}

func TestCloseUnwindsBusyServerAndEndsIdleOnes(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	never := NewCompletion(e)
	busy := NewQueue[int](e, "busy")
	unwound := false
	busy.Serve("busy-server", func(p *Proc, _ int) {
		defer func() { unwound = true }()
		never.Wait(p)
	})
	empty := NewQueue[int](e, "empty")
	empty.Serve("never-fed", func(*Proc, int) { t.Error("server of an empty queue ran") })
	drained := NewQueue[int](e, "drained")
	got := 0
	drained.Serve("drained-server", func(p *Proc, v int) {
		p.Sleep(Nanosecond)
		got += v
	})
	e.After(Microsecond, func() {
		busy.Put(1)
		drained.Put(2)
		drained.Put(3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("drained server consumed %d, want 5", got)
	}
	if n := e.LiveProcs(); n != 3 {
		t.Fatalf("live procs = %d (%v), want the 3 servers, idle ones included", n, e.ProcNames())
	}
	if names := strings.Join(e.ProcNames(), ","); names != "busy-server,drained-server,never-fed" {
		t.Errorf("ProcNames = %s", names)
	}
	// Only the busy server holds a coroutine; the drained one's went back
	// to the pool.
	if busy.server.co == nil || drained.server.co != nil || empty.server.co != nil || len(e.idle) != 1 {
		t.Errorf("coroutines: busy %v, drained %v, never fed %v, %d pooled; want only the busy server's plus one pooled",
			busy.server.co != nil, drained.server.co != nil, empty.server.co != nil, len(e.idle))
	}
	e.Close()
	if !unwound {
		t.Error("server killed mid-item did not unwind")
	}
	if e.LiveProcs() != 0 {
		t.Errorf("live procs after Close = %v", e.ProcNames())
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines after Close = %d, want at most %d", n, base)
	}
}

func TestServeCycleZeroAlloc(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	q := NewQueue[int](e, "q")
	sum := 0
	q.Serve("server", func(p *Proc, v int) {
		p.Sleep(Nanosecond)
		sum += v
	})
	q.Put(1) // warm: creates the pooled coroutine and grows the queue
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		q.Put(1)
		q.Put(2)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Put→serve→drain cycle allocates %.1f objects/op, want 0", allocs)
	}
	if sum != 1+201*3 {
		t.Errorf("server consumed %d, want %d", sum, 1+201*3)
	}
}

func TestGetOnServedQueuePanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	q := NewQueue[int](e, "q")
	q.Serve("server", func(*Proc, int) {})
	e.Go("thief", func(p *Proc) { q.Get(p) })
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "Get on served queue q") {
		t.Fatalf("Run error = %v, want a Get-on-served-queue panic", err)
	}
}
