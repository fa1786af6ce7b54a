package sim

import "errors"

// errProcKilled unwinds a process coroutine when the engine is closed.
var errProcKilled = errors.New("sim: proc killed")

// Proc is a cooperative simulation process. Exactly one Proc executes at any
// instant; all its blocking methods yield control back to the engine and
// resume when the corresponding virtual-time condition holds.
//
// A Proc runs on a Go runtime coroutine (iter.Pull): it has its own stack,
// but control passes between the engine and the process by direct switches,
// never through the scheduler, so no two of them ever run at once. The
// coroutine is lent by the engine's pool and goes back to it when the process
// function returns (see coro). A Proc must only be used from its own process
// function.
type Proc struct {
	e      *Engine
	id     uint64
	name   string
	fn     func(*Proc) // body: the function given to Go, or a queue server's drain
	co     *coro       // the coroutine running the process; nil while it holds none
	slot   int         // index in the engine's live set; -1 once the process ended
	dead   bool
	killed bool
	done   *Completion

	// A queue server (Queue.Serve) stays live while its queue is empty but
	// holds a coroutine only while items wait: its function is the queue's
	// drain, which returns once the queue is empty.
	server  bool
	serving bool // a server's dispatch is scheduled or its drain is running

	// ev is the process's pre-bound dispatch event: Sleep, Yield and unpark
	// push this one node (with a fresh sequence number) instead of
	// allocating an event and a closure per yield, which keeps the
	// steady-state park→resume cycle allocation-free.
	ev Event
}

// coro is a pooled process coroutine. Its body loops: run the bound
// process's function to completion, hand the coroutine back to the engine's
// idle list and suspend until Go (or a queue server's start) binds the next
// process. A panic or a kill ends the coroutine instead, so a coroutine that
// returns to the pool has always unwound cleanly.
type coro struct {
	p     *Proc
	next  func() (struct{}, bool) // resumes the coroutine; returns when it parks, ends or returns to the pool
	yield func(struct{}) bool     // suspends the coroutine back into next
	stop  func()                  // ends an idle coroutine (Engine.Close)
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
	p.co.yield(struct{}{}) //simlint:allow noalloc coroutine switch back into dispatch; allocation-free in steady state (TestSleepResumeZeroAlloc)
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
