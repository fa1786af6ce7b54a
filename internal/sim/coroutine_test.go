package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Processes are runtime coroutines (iter.Pull). These tests pin what that
// representation must guarantee beyond the ordinary engine semantics: Close
// releases every coroutine whatever state its process is in, an engine may
// be driven from a different goroutine on every step, and a panic deep in a
// process body still reaches the caller of Run.

// goroutineID returns the runtime's id of the calling goroutine, parsed from
// the "goroutine N [running]:" header of its stack dump.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestCloseReleasesEveryCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	never := NewCompletion(e)
	e.Go("finished", func(p *Proc) { p.Sleep(Microsecond) })
	parked := e.Go("parked", func(p *Proc) { never.Wait(p) })
	e.Go("sleeping", func(p *Proc) { p.Sleep(Second) })
	e.Go("spawner", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		// The child's first dispatch is queued but never runs: Stop ends
		// the run first, so the child is still mid-spawn at Close.
		p.Engine().Go("mid-spawn", func(*Proc) { t.Error("mid-spawn child ran") })
		p.Engine().Stop()
		never.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Go("unstarted", func(*Proc) { t.Error("unstarted proc ran") })
	const live = 5 // parked, sleeping, spawner, mid-spawn, unstarted
	if got := e.LiveProcs(); got != live {
		t.Fatalf("live procs = %d (%v), want %d", got, e.ProcNames(), live)
	}
	// Every live process holds one coroutine; the finished one holds none.
	if got := runtime.NumGoroutine(); got != base+live {
		t.Fatalf("goroutines before Close = %d, want %d (base %d + %d live procs)", got, base+live, base, live)
	}
	done := parked.Done()
	e.Close()
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("goroutines after Close = %d, want %d: coroutines leaked", got, base)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("live procs after Close = %v", e.ProcNames())
	}
	if !done.Fired() {
		t.Error("killed proc's Done did not fire")
	}
}

// epochWorld builds a small world whose processes park across epoch
// boundaries in every way the engine offers (Sleep, Queue.Get, Resource,
// Completion fired by a plain event) and logs each step with its time.
func epochWorld(log *[]string) *Engine {
	e := NewEngine()
	rng := NewRNG(11)
	q := NewQueue[int](e, "q")
	r := NewResource(e, "r", 1)
	gate := NewCompletion(e)
	note := func(p *Proc, what string) {
		*log = append(*log, fmt.Sprintf("%s %s@%v", p.Name(), what, p.Now()))
	}
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 15; j++ {
				p.Sleep(Time(rng.Intn(900)) * Nanosecond)
				r.Acquire(p, 1)
				note(p, "holds")
				p.Sleep(Time(rng.Intn(300)) * Nanosecond)
				r.Release(1)
				q.Put(j)
			}
		})
	}
	e.Go("reader", func(p *Proc) {
		for k := 0; k < 45; k++ {
			note(p, fmt.Sprintf("got%d", q.Get(p)))
		}
	})
	e.Go("gated", func(p *Proc) {
		gate.Wait(p)
		note(p, "released")
	})
	e.After(4*Microsecond, gate.Fire)
	return e
}

func TestEpochStepsFromFreshGoroutinesMatchRun(t *testing.T) {
	var want []string
	ref := epochWorld(&want)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Step a second copy the way the conservative parallel runtime does:
	// one RunBefore per epoch, each from a goroutine that did not create
	// the processes and never ran the engine before. t.Run gives every
	// epoch its own goroutine.
	var got []string
	e := epochWorld(&got)
	defer e.Close()
	const epoch = 700 * Nanosecond
	steppers := map[string]bool{goroutineID(): true}
	epochs := 0
	for !e.Idle() {
		limit := e.Now() + epoch
		epochs++
		t.Run(fmt.Sprintf("epoch%d", epochs), func(t *testing.T) {
			steppers[goroutineID()] = true
			if err := e.RunBefore(limit); err != nil {
				t.Fatal(err)
			}
		})
	}
	if len(steppers) != epochs+1 {
		t.Fatalf("%d epochs ran on %d distinct goroutines besides the test's", epochs, len(steppers)-1)
	}
	if epochs < 10 {
		t.Fatalf("only %d epochs: the world is too short to park procs across boundaries", epochs)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("epoch-stepped trace differs from Run:\n got %v\nwant %v", got, want)
	}
	if len(want) != 3*15+45+1 {
		t.Errorf("trace has %d steps, want %d", len(want), 3*15+45+1)
	}
}

func TestPanicAfterManySwitchesSurfacesThroughRun(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	q := NewQueue[int](e, "q")
	e.Go("feeder", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(Microsecond)
			q.Put(i)
		}
	})
	e.Go("bystander", func(p *Proc) { p.Sleep(Second) })
	bad := e.Go("bad", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Get(p)
			p.Yield()
		}
		panic("boom after many switches")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil for a panicking proc")
	}
	if msg := err.Error(); !strings.Contains(msg, `proc "bad" panicked: boom after many switches`) {
		t.Errorf("error does not name the proc and panic value: %v", err)
	}
	if e.Now() != 10*Microsecond {
		t.Errorf("run stopped at %v, want 10us (the panic's instant)", e.Now())
	}
	if !bad.Done().Fired() {
		t.Error("panicked proc's Done did not fire")
	}
	if e.LiveProcs() != 1 {
		t.Errorf("live procs = %v, want only the bystander", e.ProcNames())
	}
	if again := e.Run(); again != err {
		t.Errorf("second Run returned %v, want the recorded failure", again)
	}
}
