package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Event is a scheduled callback. It can be cancelled before it fires.
//
// Events live on the engine's free list between uses: a node is recycled
// when it fires if it was scheduled through a no-handle API (After, At, the
// process dispatch paths), so the steady-state schedule→fire cycle performs
// no allocation. Nodes returned by Schedule are never recycled — the
// caller's handle outlives the firing, and Cancel on a stale handle must
// stay a harmless no-op rather than cancel an unrelated reused event.
type Event struct {
	at    Time
	seq   uint64
	fn    func()    // callback; nil for dispatch and argument-carrying events
	fnArg func(any) // argument-carrying callback (AfterArg/AtArg); nil otherwise
	arg   any       // argument passed to fnArg
	proc  *Proc     // non-nil for a process's pre-bound dispatch event
	eng   *Engine   // owner, for Cancel's heap removal
	index int32     // heap index; -1 while not queued
	owned bool      // no caller handle escaped: recycle on fire
}

// Cancel prevents the event from firing and removes it from the event heap
// immediately, so mass-cancel workloads (retransmission timers) do not grow
// the heap. Cancelling an already-fired or already-cancelled event is a
// no-op.
//
//simlint:noalloc
func (ev *Event) Cancel() {
	if ev.index < 0 {
		return
	}
	e := ev.eng
	e.removeAt(int(ev.index))
	e.live--
	ev.fn = nil
	// The node is not recycled: the caller's *Event handle outlives the
	// cancellation, and a recycled node could be re-cancelled through it.
}

// At returns the virtual time the event is scheduled for.
func (ev *Event) At() Time { return ev.at }

// eventLess is the engine's total order: time, then schedule order. It is
// what makes two identical runs fire events identically.
func eventLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine. An Engine must only be used from a single thread
// of control: the goroutine that calls Run plus the process coroutines it
// switches into (which never run concurrently with it or with each other).
//
// The event queue is a monomorphic indexed 4-ary min-heap keyed on
// (time, seq): no interface boxing, sift depth log4 n, and every node knows
// its own index so Cancel unlinks in O(log n) instead of leaving tombstones.
type Engine struct {
	now     Time
	seq     uint64
	heap    []*Event
	free    []*Event // recycled owned nodes
	chunk   []Event  // bump-allocation block for fresh nodes
	live    int      // scheduled (uncancelled) events, kept for O(1) Pending
	procs   []*Proc  // live processes; Proc.slot is each one's index
	idle    []*coro  // pooled coroutines whose last process has returned
	current *Proc
	stopped bool
	closed  bool
	err     error

	// Tracer, if non-nil, receives a line for every traced action. It is
	// the legacy printf debug hook; structured tracing (Trc) has replaced it
	// internally, but the field and the Trace method keep working for
	// third-party callers.
	Tracer func(t Time, who, msg string)

	trc *trace.Tracer
	reg *metrics.Registry

	// Cached engine self-instruments (see Metrics for the names).
	cEvents, cProcs, cParked, cUnparked *metrics.Counter
}

// NewEngine returns an empty engine at virtual time zero with a fresh
// metrics registry and no tracer installed.
func NewEngine() *Engine {
	e := &Engine{reg: metrics.NewRegistry()}
	e.cEvents = e.reg.Counter("sim.events_fired")
	e.cProcs = e.reg.Counter("sim.procs_started")
	e.cParked = e.reg.Counter("sim.procs_parked")
	e.cUnparked = e.reg.Counter("sim.procs_unparked")
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Metrics returns the engine's metrics registry. Components cache their
// instruments from it at construction time; counting is always on (it
// never consumes virtual time, so simulated results are unaffected).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Trc returns the structured tracer, nil when tracing is disabled. All
// trace.Tracer methods are nil-safe, so call sites need no guards unless
// they compute expensive labels (guard those with Trc().Enabled()).
func (e *Engine) Trc() *trace.Tracer { return e.trc }

// SetTracer installs (or, with nil, removes) a structured tracer.
func (e *Engine) SetTracer(t *trace.Tracer) { e.trc = t }

// StartTrace creates a tracer bound to this engine's virtual clock, keeping
// at most maxEvents events (<= 0 selects trace.DefaultMaxEvents), installs
// it and returns it.
func (e *Engine) StartTrace(maxEvents int) *trace.Tracer {
	t := trace.New(func() int64 { return int64(e.now) }, maxEvents)
	e.trc = t
	return t
}

// Trace formats and emits a debug message: to the legacy Tracer hook if one
// is installed, and as a structured instant event if tracing is enabled.
// Kept for compatibility; new instrumentation should use Trc directly.
func (e *Engine) Trace(who, format string, args ...any) {
	if e.Tracer == nil && !e.trc.Enabled() {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if e.Tracer != nil {
		e.Tracer(e.now, who, msg)
	}
	e.trc.Instant(who, msg) //simlint:allow tracekeys legacy free-form debug hook; the Enabled/Tracer guard above keeps the disabled path allocation-free
}

// alloc takes an event node from the free list, or carves one from the
// current bump-allocation chunk.
//
//simlint:noalloc
func (e *Engine) alloc() *Event {
	if n := len(e.free) - 1; n >= 0 {
		ev := e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
		return ev
	}
	if len(e.chunk) == 0 {
		e.chunk = make([]Event, 64) //simlint:allow noalloc amortized 64-node bump block; steady state serves from the free list
	}
	ev := &e.chunk[0]
	e.chunk = e.chunk[1:]
	ev.eng = e
	ev.index = -1
	return ev
}

// recycle returns an owned node to the free list once it has fired.
//
//simlint:noalloc
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	e.free = append(e.free, ev) //simlint:allow noalloc amortized free-list growth; steady state reuses capacity
}

// schedule queues fn at now+after and returns the node.
//
//simlint:noalloc
func (e *Engine) schedule(after Time, fn func(), owned bool) *Event {
	if e.closed {
		panic("sim: Schedule on closed engine")
	}
	if after < 0 {
		after = 0
	}
	ev := e.alloc()
	ev.at = e.now + after
	ev.seq = e.seq
	ev.fn = fn
	ev.owned = owned
	e.seq++
	e.push(ev)
	e.live++
	return ev
}

// Schedule arranges for fn to run at now+after. A negative delay is treated
// as zero. fn runs in engine context: it must not block on virtual time (use
// a Proc for that) but it may schedule further events, fire Completions, put
// to Queues and release Resources.
//
// Prefer After when the handle is not needed: it recycles the event node.
//
//simlint:noalloc
func (e *Engine) Schedule(after Time, fn func()) *Event {
	return e.schedule(after, fn, false)
}

// After is Schedule without the cancellation handle. The event node is
// recycled through the engine's free list when it fires, so the
// schedule→fire cycle allocates nothing.
//
//simlint:noalloc
func (e *Engine) After(after Time, fn func()) {
	e.schedule(after, fn, true)
}

// ScheduleAt is Schedule with an absolute timestamp, which must not be in
// the past.
//
//simlint:noalloc
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) in the past (now %v)", at, e.now))
	}
	return e.schedule(at-e.now, fn, false)
}

// At is ScheduleAt without the cancellation handle; like After, the event
// node is recycled when it fires.
//
//simlint:noalloc
func (e *Engine) At(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: At(%v) in the past (now %v)", at, e.now))
	}
	e.schedule(at-e.now, fn, true)
}

// AfterArg is After for an argument-carrying callback: fn(arg) runs at
// now+after. Passing the state as an argument lets per-event hot paths reuse
// one long-lived fn instead of capturing fresh state in a closure per event —
// converting a pointer-shaped arg (a *Frame, say) to any does not allocate,
// while building a capturing func literal does.
//
//simlint:noalloc
func (e *Engine) AfterArg(after Time, fn func(any), arg any) {
	ev := e.schedule(after, nil, true)
	ev.fnArg = fn
	ev.arg = arg
}

// AtArg is AfterArg with an absolute timestamp, which must not be in the
// past. It is the zero-allocation form of At for per-frame delivery paths:
// the callback is built once at wiring time and the frame rides along as the
// argument.
//
//simlint:noalloc
func (e *Engine) AtArg(at Time, fn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: AtArg(%v) in the past (now %v)", at, e.now))
	}
	ev := e.schedule(at-e.now, nil, true)
	ev.fnArg = fn
	ev.arg = arg
}

// scheduleProc queues p's pre-bound dispatch event at now+after. Every
// process owns exactly one dispatch node, reused in place across parks, so
// the park→unpark cycle allocates nothing. A parked process has at most one
// dispatch pending by construction; a second one would resume a coroutine
// that is already running, so it is a fatal bug.
//
//simlint:noalloc
func (e *Engine) scheduleProc(p *Proc, after Time) {
	if e.closed {
		panic("sim: Schedule on closed engine")
	}
	if after < 0 {
		after = 0
	}
	ev := &p.ev
	if ev.index >= 0 {
		panic("sim: proc " + p.name + " unparked twice")
	}
	ev.at = e.now + after
	ev.seq = e.seq
	e.seq++
	e.push(ev)
	e.live++
}

// push inserts ev into the 4-ary heap.
//
//simlint:noalloc
func (e *Engine) push(ev *Event) {
	e.heap = append(e.heap, ev) //simlint:allow noalloc amortized heap growth; steady state reuses capacity
	e.siftUp(len(e.heap)-1, ev)
}

// siftUp places ev at index i or above, shifting larger parents down.
func (e *Engine) siftUp(i int, ev *Event) {
	h := e.heap
	for i > 0 {
		pi := (i - 1) >> 2
		p := h[pi]
		if !eventLess(ev, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = pi
	}
	h[i] = ev
	ev.index = int32(i)
}

// siftDown places ev at index i or below, pulling the smallest child up.
func (e *Engine) siftDown(i int, ev *Event) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, min := c, h[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], min) {
				m, min = j, h[j]
			}
		}
		if !eventLess(min, ev) {
			break
		}
		h[i] = min
		min.index = int32(i)
		i = m
	}
	h[i] = ev
	ev.index = int32(i)
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	h := e.heap
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
	ev.index = -1
	return ev
}

// removeAt unlinks the event at heap index i (the Cancel sift-out path).
func (e *Engine) removeAt(i int) {
	h := e.heap
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if i < n {
		e.siftDown(i, last)
		if last.index == int32(i) {
			e.siftUp(i, last)
		}
	}
	ev.index = -1
}

// Run executes events until none remain or Stop is called. It returns the
// first process failure, if any. Processes still blocked when the event heap
// drains simply remain parked; use Close to unwind them.
//
//simlint:noalloc
func (e *Engine) Run() error {
	if e.closed {
		return fmt.Errorf("sim: Run on closed engine") //simlint:allow noalloc fatal misuse path; the run never starts
	}
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.err == nil {
		ev := e.popMin()
		if ev.at < e.now {
			return fmt.Errorf("sim: time went backwards: %v < %v", ev.at, e.now) //simlint:allow noalloc fatal corruption path; the run aborts
		}
		e.now = ev.at
		e.live--
		e.cEvents.Inc()
		if p := ev.proc; p != nil {
			e.dispatch(p)
			continue
		}
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		if ev.owned {
			e.recycle(ev)
		}
		if fn != nil {
			fn() //simlint:allow noalloc the callback's allocations are charged to whoever scheduled it, not to the fire path
		} else {
			fnArg(arg) //simlint:allow noalloc the callback's allocations are charged to whoever scheduled it, not to the fire path
		}
	}
	return e.err
}

// NextEventTime returns the timestamp of the earliest pending event, or
// ok=false when the event heap is empty. It is the peek the conservative
// parallel runtime (internal/pdes) uses to compute the global barrier.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// RunBefore executes every event scheduled strictly before t, then advances
// the clock to exactly t. Unlike RunUntil it schedules no stop event, so an
// epoch-driven caller (internal/pdes steps each shard engine once per
// barrier) pays nothing per call beyond the events themselves.
//
//simlint:noalloc
func (e *Engine) RunBefore(t Time) error {
	if e.closed {
		return fmt.Errorf("sim: RunBefore on closed engine") //simlint:allow noalloc fatal misuse path; the run never starts
	}
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.err == nil && e.heap[0].at < t {
		ev := e.popMin()
		if ev.at < e.now {
			return fmt.Errorf("sim: time went backwards: %v < %v", ev.at, e.now) //simlint:allow noalloc fatal corruption path; the run aborts
		}
		e.now = ev.at
		e.live--
		e.cEvents.Inc()
		if p := ev.proc; p != nil {
			e.dispatch(p)
			continue
		}
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		if ev.owned {
			e.recycle(ev)
		}
		if fn != nil {
			fn() //simlint:allow noalloc the callback's allocations are charged to whoever scheduled it, not to the fire path
		} else {
			fnArg(arg) //simlint:allow noalloc the callback's allocations are charged to whoever scheduled it, not to the fire path
		}
	}
	if e.err == nil && e.now < t {
		e.now = t
	}
	return e.err
}

// RunFor runs the engine for at most d virtual time.
func (e *Engine) RunFor(d Time) error { return e.RunUntil(e.now + d) }

// RunUntil runs the engine until virtual time t (inclusive of events at t).
func (e *Engine) RunUntil(t Time) error {
	stop := e.Schedule(t-e.now, func() { e.Stop() })
	err := e.Run()
	stop.Cancel()
	if e.now < t && err == nil {
		// Event heap drained early; advance the clock to the requested time.
		e.now = t
	}
	return err
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return len(e.heap) == 0 }

// Pending returns the number of scheduled (uncancelled) events. It is O(1):
// the engine maintains a live-event counter across Schedule, Cancel and
// fire instead of scanning the heap.
func (e *Engine) Pending() int { return e.live }

// LiveProcs returns the number of processes that have been started and have
// not yet finished.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// fail records a fatal simulation error and stops the run loop.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
}

// Close terminates every live process, then marks the engine unusable. It
// must not be called from process context. Close is idempotent.
//
// Processes are ended in id order. One that holds a coroutine (parked,
// sleeping, not yet started, or a queue server mid-item) is dispatched once
// with the killed flag set, which makes its next (or current) yield point
// panic with errProcKilled; the recover in the coroutine body swallows it.
// A queue server between items holds no coroutine and is ended in place.
// Afterwards the idle coroutines in the pool are stopped, so no coroutine
// outlives the engine.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	if e.current != nil {
		panic("sim: Close called from process context")
	}
	defer func() { e.closed = true }()
	// Snapshot and sort once: a dying proc cannot spawn or wake others
	// (completions only schedule events), so the snapshot stays complete.
	live := append([]*Proc(nil), e.procs...)
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, p := range live {
		if p.slot < 0 {
			continue
		}
		if p.co == nil {
			e.exit(p)
			e.unlink(p)
			continue
		}
		p.killed = true
		e.dispatch(p)
		if p.slot >= 0 {
			panic(fmt.Sprintf("sim: proc %q survived kill", p.name))
		}
	}
	if len(e.procs) > 0 {
		panic(fmt.Sprintf("sim: %d procs survived Close", len(e.procs)))
	}
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
}

// dispatch hands control to p and blocks until p yields back. It is the only
// way process code ever runs.
//
//simlint:noalloc
func (e *Engine) dispatch(p *Proc) {
	if p.co == nil {
		// A queue server's registration dispatch with nothing queued yet:
		// it goes idle without ever taking a coroutine (see Queue.Serve).
		p.serving = false
		return
	}
	prev := e.current
	e.current = p
	e.cUnparked.Inc()
	p.co.next() //simlint:allow noalloc coroutine switch into the proc until it parks or ends; allocation-free in steady state (TestSleepResumeZeroAlloc)
	e.current = prev
	if p.dead {
		e.unlink(p)
	}
}

// Go starts a new process running fn. The process begins executing at the
// current virtual time (after already-scheduled events at this timestamp).
// It is safe to call from engine context or process context.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := e.spawn(name, fn)
	e.bind(p)
	e.scheduleProc(p, 0)
	return p
}

// spawn creates a process and adds it to the live set. Its id is the
// sequence number its first dispatch will take: unique and monotone.
func (e *Engine) spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{e: e, id: e.seq, name: name, fn: fn, slot: len(e.procs)}
	p.ev.proc = p
	p.ev.eng = e
	p.ev.index = -1
	e.procs = append(e.procs, p)
	e.cProcs.Inc()
	return p
}

// unlink removes an ended process from the live set in O(1) by moving the
// last entry into its slot.
func (e *Engine) unlink(p *Proc) {
	n := len(e.procs) - 1
	last := e.procs[n]
	e.procs[p.slot] = last
	last.slot = p.slot
	e.procs[n] = nil
	e.procs = e.procs[:n]
	p.slot = -1
}

// exit marks p ended and fires its Done completion.
func (e *Engine) exit(p *Proc) {
	p.dead = true
	if p.done != nil {
		p.done.fire()
	}
}

// bind lends p a coroutine: the most recently pooled one, whose stack is
// already grown and likely still in cache, or a new one when the pool is
// empty.
func (e *Engine) bind(p *Proc) {
	var c *coro
	if n := len(e.idle) - 1; n >= 0 {
		c = e.idle[n]
		e.idle[n] = nil
		e.idle = e.idle[:n]
	} else {
		c = e.newCoro()
	}
	c.p = p
	p.co = c
}

// newCoro creates a pooled coroutine. Its body runs the bound process's
// function, returns itself to the idle list and suspends until the next
// bind; it never lets a panic escape into next. The recover is armed once
// for the coroutine's whole life: failures are recorded on the engine, a
// kill unwinds to it, and either way the coroutine ends rather than return
// to the pool with a half-unwound process.
func (e *Engine) newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil {
				p := c.p
				if r != errProcKilled {
					e.fail(fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack()))
				}
				p.co = nil
				if !p.dead {
					e.exit(p)
				}
			}
		}()
		for {
			p := c.p
			if !p.killed {
				p.fn(p)
			}
			if p.server && !p.killed {
				p.serving = false
			} else {
				e.exit(p)
			}
			c.p, p.co = nil, nil
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// wake readies queue server p after a Put: it binds a coroutine if p holds
// none and, unless a dispatch is already scheduled or the drain is running,
// schedules one now — the instant and sequence number an unparked getter
// would take.
func (e *Engine) wake(p *Proc) {
	if p.dead {
		return
	}
	if p.co == nil {
		e.bind(p)
	}
	if !p.serving {
		p.serving = true
		e.scheduleProc(p, 0)
	}
}

// ProcNames returns the names of all live processes, sorted; a debugging
// aid for diagnosing deadlocks (live processes after Run returns are
// blocked on conditions that can no longer occur).
func (e *Engine) ProcNames() []string {
	names := make([]string, 0, len(e.procs))
	for _, p := range e.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}
