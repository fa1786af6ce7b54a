package sim

import "errors"

// errProcKilled unwinds a process coroutine when the engine is closed.
var errProcKilled = errors.New("sim: proc killed")

// Proc is a cooperative simulation process. Exactly one Proc executes at any
// instant; all its blocking methods yield control back to the engine and
// resume when the corresponding virtual-time condition holds.
//
// A Proc is a Go runtime coroutine (iter.Pull): it has its own stack, but
// control passes between the engine and the process by direct switches, never
// through the scheduler, so no two of them ever run at once. A Proc must only
// be used from its own process function.
type Proc struct {
	e      *Engine
	id     uint64
	name   string
	next   func() (struct{}, bool) // resumes the coroutine; returns when it parks or ends
	yield  func(struct{}) bool     // suspends the coroutine back into next
	dead   bool
	killed bool
	done   *Completion

	// ev is the process's pre-bound dispatch event: Sleep, Yield and unpark
	// push this one node (with a fresh sequence number) instead of
	// allocating an event and a closure per yield, which keeps the
	// steady-state park→resume cycle allocation-free.
	ev Event
}

// Name returns the process name given to Engine.Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine that owns the process.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Done returns a Completion that fires when the process function returns.
func (p *Proc) Done() *Completion {
	if p.done == nil {
		p.done = NewCompletion(p.e)
		if p.dead {
			p.done.fire()
		}
	}
	return p.done
}

// park yields control to the engine without scheduling a wakeup. Something
// else must eventually unpark the process (Completion.Fire, Queue.Put,
// Resource.Release or Engine.Close).
//
//simlint:noalloc
func (p *Proc) park() {
	p.e.cParked.Inc()
	p.yield(struct{}{}) //simlint:allow noalloc coroutine switch back into dispatch; allocation-free in steady state (TestSleepResumeZeroAlloc)
	if p.killed {
		panic(errProcKilled)
	}
}

// unpark schedules the process to resume at the current virtual time.
//
//simlint:noalloc
func (p *Proc) unpark() {
	p.e.scheduleProc(p, 0)
}

// Sleep blocks the process for d virtual time. Negative durations count as
// zero (the process still yields, so co-scheduled events at the same
// timestamp run in deterministic order).
//
//simlint:noalloc
func (p *Proc) Sleep(d Time) {
	p.e.scheduleProc(p, d)
	p.park()
}

// SleepUntil blocks the process until virtual time t. If t is in the past
// the process just yields once.
//
//simlint:noalloc
func (p *Proc) SleepUntil(t Time) {
	d := t - p.e.now
	p.Sleep(d)
}

// Yield lets every other event and process scheduled at the current
// timestamp run before the process continues.
//
//simlint:noalloc
func (p *Proc) Yield() { p.Sleep(0) }
