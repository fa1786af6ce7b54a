package sim

// Queue is an unbounded FIFO channel between simulation activities. Put
// never blocks and is safe from engine context (event callbacks); Get blocks
// the calling process until an item is available. Items are delivered in
// insertion order; competing getters are served in arrival order. A queue
// with a single consumer can instead be served (Serve): the consumer then
// costs a coroutine only while items wait.
//
// Both the item and getter FIFOs are head-indexed slices rather than
// window-resliced ones: popping advances a cursor and the backing array is
// reused once drained, so the steady-state put→get cycle allocates nothing.
type Queue[T any] struct {
	e       *Engine
	name    string
	items   []T
	ihead   int // items[ihead:] are live
	getters []*Proc
	ghead   int // getters[ghead:] are waiting
	server  *Proc
	serve   func(*Proc, T)

	puts    int64
	maxLen  int
	lenTime Time // integral of queue length over time, for AvgLen
	lastAt  Time
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{e: e, name: name}
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.ihead }

// Puts returns the total number of items ever put.
func (q *Queue[T]) Puts() int64 { return q.puts }

// MaxLen returns the high-water mark of the queue length.
func (q *Queue[T]) MaxLen() int { return q.maxLen }

func (q *Queue[T]) account() {
	q.lenTime += Time(q.Len()) * (q.e.now - q.lastAt)
	q.lastAt = q.e.now
}

// AvgLen returns the time-averaged queue length over [0, now].
func (q *Queue[T]) AvgLen() float64 {
	if q.e.now == 0 {
		return 0
	}
	q.account()
	return float64(q.lenTime) / float64(q.e.now)
}

// popItem removes and returns the oldest item, resetting the backing array
// once the queue drains so its capacity is reused.
func (q *Queue[T]) popItem() T {
	v := q.items[q.ihead]
	var zero T
	q.items[q.ihead] = zero
	q.ihead++
	if q.ihead == len(q.items) {
		q.items = q.items[:0]
		q.ihead = 0
	}
	return v
}

// popGetter removes and returns the first waiting process.
func (q *Queue[T]) popGetter() *Proc {
	g := q.getters[q.ghead]
	q.getters[q.ghead] = nil
	q.ghead++
	if q.ghead == len(q.getters) {
		q.getters = q.getters[:0]
		q.ghead = 0
	}
	return g
}

// Put appends an item and wakes the first waiting getter, if any, or the
// queue's server.
func (q *Queue[T]) Put(v T) {
	q.account()
	q.puts++
	q.items = append(q.items, v)
	if q.Len() > q.maxLen {
		q.maxLen = q.Len()
	}
	if q.server != nil {
		q.e.wake(q.server)
	} else if q.ghead < len(q.getters) {
		q.popGetter().unpark()
	}
}

// Serve makes fn the queue's only consumer: a process named name that calls
// fn for every item, in order. It behaves exactly like
//
//	e.Go(name, func(p *Proc) { for { fn(p, q.Get(p)) } })
//
// — the same events at the same instants with the same sequence numbers —
// but it holds a coroutine only while items wait. Serve schedules the
// server's first dispatch where Go would (it goes idle at once if nothing is
// queued by then); after that, a Put to an empty queue schedules the server
// where it would have unparked the waiting getter, and the server drains
// every item with the same accounting as Get, then returns its coroutine to
// the engine's pool. Between items the server stays live (LiveProcs,
// ProcNames); Engine.Close ends it. fn may block. Get on a served queue
// panics.
func (q *Queue[T]) Serve(name string, fn func(*Proc, T)) {
	if q.server != nil || q.ghead < len(q.getters) {
		panic("sim: queue " + q.name + " already has a consumer")
	}
	q.serve = fn
	p := q.e.spawn(name, q.drain)
	p.server = true
	p.serving = true
	q.server = p
	if q.Len() > 0 {
		q.e.bind(p)
	}
	q.e.scheduleProc(p, 0)
}

// drain is a server's process function: it consumes items until the queue
// is empty, as Get would without ever parking.
func (q *Queue[T]) drain(p *Proc) {
	for q.Len() > 0 {
		q.account()
		q.serve(p, q.popItem())
	}
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	if q.server != nil {
		panic("sim: Get on served queue " + q.name)
	}
	for q.Len() == 0 {
		q.getters = append(q.getters, p)
		p.park()
	}
	q.account()
	v := q.popItem()
	// Cascade: if items remain and other getters wait, keep them moving.
	if q.Len() > 0 && q.ghead < len(q.getters) {
		q.popGetter().unpark()
	}
	return v
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	q.account()
	return q.popItem(), true
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items[q.ihead], true
}
