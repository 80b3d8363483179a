// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// activation time. Events scheduled for the same instant fire in the order
// they were scheduled (FIFO tie-breaking by sequence number), which makes
// every simulation run exactly reproducible.
//
// The GreenGPU testbed is built entirely on this engine: devices advance
// their internal state lazily when observed, and controllers (the DVFS tier,
// the ondemand governor, the workload-division tier) run as periodic events.
//
// # Allocation-free scheduling
//
// The engine recycles event nodes through a free list, so steady-state
// Schedule/fire churn (device phase completions, controller ticks) allocates
// nothing; a Ticker goes further and re-queues one node it owns in place on
// every tick. Schedule returns an Event handle — a small value, not a pointer
// to engine-owned memory — that carries a generation counter. When a node
// fires or is cancelled it returns to the pool and its generation is bumped;
// a handle whose generation no longer matches is stale and every operation
// on it (Cancel, Scheduled) degrades to a safe no-op. Stale handles are
// therefore detected, never dangling: cancelling an event that already fired
// cannot kill an unrelated event that happens to reuse its node.
//
// A ticker whose callback knows its coming ticks are no-ops until the next
// queued event can skip them with SkipIdle.
package sim

import (
	"fmt"
	"math"
	"time"

	"greengpu/internal/telemetry"
)

// Package metrics (see docs/OBSERVABILITY.md). Deliberately coarse: the
// per-event loop is the hottest path in the repository, so events are
// tallied locally by Run/RunUntil and flushed once per call — zero added
// instructions per event. No-ops unless telemetry is enabled.
var (
	metricRuns = telemetry.NewCounter("greengpu_sim_runs_total",
		"Engine Run/RunUntil invocations across all simulations.")
	metricEvents = telemetry.NewCounter("greengpu_sim_events_total",
		"Events dispatched by Run/RunUntil across all simulations.")
)

// MaxTime is the largest representable simulation instant.
const MaxTime = time.Duration(math.MaxInt64)

// Engine is a discrete-event simulator. The zero value is ready to use and
// starts at time zero. An Engine must not be shared between goroutines.
type Engine struct {
	now     time.Duration
	queue   eventHeap
	free    []*event // recycled nodes, reused by the next Schedule
	seq     uint64
	stopped bool
}

// New returns a new Engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// event is a pooled queue node. Nodes are owned by the engine and recycled
// on fire/cancel; external code only ever sees Event handles.
type event struct {
	at     time.Duration
	seq    uint64
	fn     func()
	ticker *Ticker // owning ticker, which fires instead of fn; nil otherwise
	index  int32   // heap index, -1 while pooled
	gen    uint64  // bumped on every recycle; stale handles mismatch
}

// Event is a handle to a scheduled callback. It is a small value, safe to
// copy and to keep after the callback fires: once the event has fired or
// been cancelled the handle is stale, Scheduled reports false, and Cancel is
// a no-op — even if the engine has reused the underlying node for a newer
// event. The zero Event behaves like a handle to an already-released event.
type Event struct {
	node *event
	gen  uint64
	at   time.Duration
}

// Time returns the instant the event is (or was) scheduled to fire.
func (ev Event) Time() time.Duration { return ev.at }

// Scheduled reports whether the event is still pending.
func (ev Event) Scheduled() bool {
	return ev.node != nil && ev.node.gen == ev.gen && ev.node.index >= 0
}

// alloc takes a node from the free list, or grows the pool.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &event{index: -1}
}

// recycle returns a node to the pool, invalidating all outstanding handles
// to it by bumping the generation. The callback is dropped so the pool does
// not retain closures (and whatever they capture) between uses.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.ticker = nil
	ev.index = -1
	ev.gen++
	e.free = append(e.free, ev)
}

// Schedule registers fn to run at absolute simulation time at. Scheduling in
// the past (before Now) panics: it would silently corrupt causality.
func (e *Engine) Schedule(at time.Duration, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v which is before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.seq++
	e.queue.push(ev)
	return Event{node: ev, gen: ev.gen, at: at}
}

// After registers fn to run d after the current time. Delays that would
// overflow the simulation clock saturate at MaxTime (an event effectively
// beyond any run's horizon) instead of wrapping into the past.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%v) with negative delay", d))
	}
	return e.Schedule(AddTime(e.now, d), fn)
}

// AddTime advances a simulation timestamp by a non-negative delay with the
// same saturation rule the engine clock uses: sums that would overflow the
// int64 nanosecond range pin to MaxTime instead of wrapping into the past.
// Exported so code that computes event times outside an Engine, such as
// the bus's transfer ends, advances the clock bit-identically.
func AddTime(t, d time.Duration) time.Duration {
	at := t + d
	if at < t { // int64 overflow
		at = MaxTime
	}
	return at
}

// Cancel removes the event from the queue and recycles its node.
// Cancelling an already-fired, already-cancelled, stale, or zero handle is
// a no-op.
func (e *Engine) Cancel(ev Event) {
	n := ev.node
	if n == nil || n.gen != ev.gen || n.index < 0 {
		return
	}
	e.queue.remove(int(n.index))
	e.recycle(n)
}

// Step fires the single earliest pending event, advancing the clock to its
// activation time. It reports whether an event was processed.
//
// The node is recycled before the callback runs, so a callback that
// schedules new work may be handed the node it is firing from — handles
// held by the callback's creator are already stale by then and cannot
// interfere with the new event. A ticker's node is the exception: the
// ticker keeps it and re-queues it after its callback.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	if t := ev.ticker; t != nil {
		t.fire()
		return true
	}
	fn := ev.fn
	e.recycle(ev)
	fn()
	return true
}

// Run processes events until the queue is empty or Stop is called.
// It returns the number of events processed.
func (e *Engine) Run() int {
	e.stopped = false
	n := 0
	for !e.stopped && e.Step() {
		n++
	}
	metricRuns.Inc()
	metricEvents.Add(uint64(n))
	return n
}

// RunUntil processes events with activation time <= t, then advances the
// clock to exactly t (even if no event fired). It returns the number of
// events processed.
func (e *Engine) RunUntil(t time.Duration) int {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) is before now %v", t, e.now))
	}
	e.stopped = false
	n := 0
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
		n++
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
	metricRuns.Inc()
	metricEvents.Add(uint64(n))
	return n
}

// Stop makes the innermost Run or RunUntil return after the current event
// completes. It is intended to be called from inside an event callback.
func (e *Engine) Stop() { e.stopped = true }

// Ticker fires a callback at a fixed period until stopped.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      func()
	node    *event // owned until Stop; re-queued in place on every tick
	stopped bool
}

// Every schedules fn to run every period, with the first firing one full
// period from now. The period must be positive.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every(%v) with non-positive period", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn, node: e.alloc()}
	t.node.ticker = t
	t.arm()
	return t
}

// arm queues the ticker's node one period from now. It takes the next
// sequence number exactly as Schedule would, so re-arming in place orders
// every tick as a fresh After call would.
func (t *Ticker) arm() {
	e, n := t.engine, t.node
	n.at, n.seq = AddTime(e.now, t.period), e.seq
	e.seq++
	e.queue.push(n)
}

// fire runs one tick; Step calls it with the node already dequeued. A
// callback that called SkipIdle has queued the node itself.
func (t *Ticker) fire() {
	t.fn()
	if !t.stopped && t.node.index < 0 {
		t.arm()
	}
}

// SkipIdle re-arms the ticker at its first period boundary at or after the
// engine's next queued event, instead of one period on, and returns how
// many boundaries it skipped. It is for a callback whose tick changed
// nothing and would change nothing at any instant before that event: the
// skipped ticks are exactly the ones that would have fired before it.
// When the queue is empty or the next event is within one period, the
// ticker arms one period on as usual and SkipIdle returns 0.
//
// Call SkipIdle last in the ticker's own callback, after anything the
// callback schedules, and only while the engine runs through to that next
// event: the skip assumes nothing else happens in between. The re-armed
// tick takes the next sequence number, as the natural re-arm would, so
// ties with events already queued break as they would in a ticker that
// never skipped. Called outside the ticker's callback it panics.
func (t *Ticker) SkipIdle() uint64 {
	e, n := t.engine, t.node
	if t.stopped {
		return 0
	}
	if n.index >= 0 {
		panic("sim: SkipIdle outside the ticker's callback")
	}
	if len(e.queue) == 0 {
		return 0
	}
	// Step through the boundaries with the ticks' own saturating
	// arithmetic. A step costs far less than the tick it replaces, and
	// less than a 64-bit division over the few periods a skip usually
	// spans.
	next, at := e.queue[0].at, AddTime(e.now, t.period)
	var skipped uint64
	for at < next {
		at = AddTime(at, t.period)
		skipped++
	}
	if skipped > 0 {
		n.at, n.seq = at, e.seq
		e.seq++
		e.queue.push(n)
	}
	return skipped
}

// Stop cancels future firings. A tick already being processed completes.
// The ticker's node returns to the engine's pool.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if n := t.node; n.index >= 0 {
		t.engine.queue.remove(int(n.index))
	}
	t.engine.recycle(t.node)
}

// Period returns the ticker's firing period.
func (t *Ticker) Period() time.Duration { return t.period }

// heapArity is the fan-out of the event queue. A 4-ary heap halves tree
// depth versus a binary heap: sift paths touch fewer cache lines at the
// cost of a few extra in-line comparisons per level, a good trade for the
// Schedule/Step churn the device models generate.
const heapArity = 4

// eventHeap is an indexed min-heap on (at, seq). Sifts move elements along
// the hole rather than swapping, and pop/remove reset the departing node's
// index themselves so no call site can forget to.
type eventHeap []*event

func (h eventHeap) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves the element at i toward the root and returns its final index.
func (h eventHeap) siftUp(i int) int {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !h.less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
	return i
}

// siftDown moves the element at i toward the leaves and returns its final
// index.
func (h eventHeap) siftDown(i int) int {
	ev := h[i]
	n := len(h)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		hi := c + heapArity
		if hi > n {
			hi = n
		}
		for k := c + 1; k < hi; k++ {
			if h.less(h[k], h[m]) {
				m = k
			}
		}
		if !h.less(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = ev
	ev.index = int32(i)
	return i
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	ev.index = int32(len(*h) - 1)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the minimum event with its index reset to -1.
func (h *eventHeap) pop() *event {
	old := *h
	top := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.siftDown(0)
	}
	top.index = -1
	return top
}

// remove removes the event at heap index i with its index reset to -1.
func (h *eventHeap) remove(i int) *event {
	old := *h
	ev := old[i]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		last.index = int32(i)
		if h.siftDown(i) == i {
			h.siftUp(i)
		}
	}
	ev.index = -1
	return ev
}
