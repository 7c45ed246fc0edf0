// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, so a
// simulation run is a pure function of its inputs: two runs with the same
// seed and the same program produce bit-identical results. This determinism
// is what lets the machine model (internal/machine) count cycles and
// interconnect transactions exactly, the way 1991-era synchronization
// studies did on real hardware.
//
// Every event is a small value — a kind plus two int32 arguments,
// typically a processor index and an address — so the queue holds no
// closures, no interface{} boxing, and no pointers, and steady-state
// scheduling and stepping perform zero heap allocations. A simulation
// layer either installs one Handler that Step routes every event to, or
// drives the engine itself and consumes each payload from StepPayload
// (the machine layer's drive loop, internal/machine).
package sim

import (
	"errors"
	"fmt"
)

// Time is a point on the simulated clock, measured in cycles.
type Time int64

// EventKind tags the payload of a typed event. Kinds are defined by the
// simulation layer that installs the Handler; the engine only routes them.
type EventKind uint8

const (
	// EvDispatch resumes a parked processor; arg0 is the processor index.
	// For a processor inside a straight-line continuation script the
	// simulation layer instead executes the script's next step directly
	// in its drive loop, resuming the goroutine only once the script
	// completes.
	EvDispatch EventKind = iota
	// EvSpin advances a machine-driven spin wait: the simulation layer
	// executes the waiting processor's next probe (or watcher re-check)
	// directly in its drive loop, without resuming the processor's
	// goroutine. arg0 is the processor index, arg1 an address for
	// debugging. Scheduling-wise an EvSpin is indistinguishable from the
	// EvDispatch it replaces — same timestamp, same sequence-number
	// consumption — which is what keeps spin batching bit-identical to
	// probe-by-probe execution.
	EvSpin
	// EvFault materializes a scheduled machine fault (today: a permanent
	// processor crash); arg0 is the processor index. Keeping faults in
	// the event queue — rather than checking fault tables lazily — means
	// a pending EvFault bounds every processor's inline run-ahead and
	// every spin window's horizon exactly like any other event, which is
	// what keeps faulted runs bit-identical across execution paths.
	EvFault
	// EvRecover rebirths a crashed processor; arg0 is the processor
	// index. The simulation layer re-registers the processor at its
	// recovery entry point with reset local state — nothing the dead
	// incarnation held is released. Like EvFault, a pending EvRecover
	// is an ordinary queue entry: it bounds inline run-ahead and window
	// horizons exactly like any other event, so crash-recovery runs
	// keep the windows on/off bit-identity contract.
	EvRecover
)

// Handler consumes events. A single handler is installed by the owning
// simulation layer (SetHandler); Step calls it with the event's kind
// and payload each time an event fires.
type Handler func(kind EventKind, arg0, arg1 int32)

// event is a queue entry: 32 bytes carrying its whole payload by value,
// so pushing and popping never touches the garbage collector.
type event struct {
	when Time
	seq  uint64 // tie-break: FIFO among same-instant events
	kind EventKind
	arg0 int32
	arg1 int32
}

// before reports whether a fires before b: earlier timestamp, or same
// timestamp and earlier scheduling order.
func (a *event) before(b *event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// ErrStepLimit is returned by Run when the configured maximum number of
// events is exceeded, which almost always indicates a livelock in the
// simulated program (for example, a spin loop that can never succeed).
var ErrStepLimit = errors.New("sim: event step limit exceeded (livelock?)")

// Engine is a deterministic discrete-event scheduler.
// The zero value is not usable; call NewEngine.
//
// The queue adapts its layout to the event population. Simulations keep
// roughly one pending event per processor, so small populations (the
// common case: a machine with tens of processors) live in an unsorted
// array with a cached minimum — push is an append, pop a swap-remove
// plus a sequential rescan, both cheaper than heap sifts at this size.
// When the population first exceeds linearMax the queue heapifies and
// stays a 4-ary min-heap for the rest of the run (Reset restores linear
// mode). Both layouts pop in exactly (when, seq) order, so the mode is
// invisible to simulation results.
type Engine struct {
	now      Time
	events   []event // linear: unsorted, minIdx cached; heap: 4-ary min-heap
	linear   bool
	minIdx   int // linear mode: index of the (when, seq) minimum
	seq      uint64
	steps    uint64 // events fired
	work     uint64 // events fired + inline work charged via ChargeStep
	maxSteps uint64
	handler  Handler
}

// linearMax is the population above which the queue switches to the
// heap. Measured on the contended P=32 storm cells (PR 6): the heap's
// O(log n) pops beat the linear rescan from the mid-teens up — raising
// this to 32 or 48 costs the per-event cluster path 10-20% — while tiny
// populations (a handful of workers trading one lock) still pop faster
// out of the flat array. 16 keeps the small-machine cells linear and
// hands every contended storm to the heap.
const linearMax = 16

// DefaultMaxSteps bounds runaway simulations. Each simulated memory
// operation is roughly one event, so this allows on the order of 10^8
// operations before the engine declares a livelock.
const DefaultMaxSteps = 200_000_000

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{maxSteps: DefaultMaxSteps, linear: true}
}

// SetMaxSteps overrides the livelock guard. A value of zero restores the
// default.
func (e *Engine) SetMaxSteps(n uint64) {
	if n == 0 {
		n = DefaultMaxSteps
	}
	e.maxSteps = n
}

// SetHandler installs the consumer of events fired by Step. Stepping an
// event without a handler is a programming error and panics at fire
// time; StepPayload needs no handler.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// ChargeStep counts one unit of simulated work retired outside the
// event loop (an inline fast-path operation in the machine layer)
// toward the livelock budget, and reports whether the budget is about
// to be exhausted. Callers that see true must fall back to scheduling
// a real event — which is then the unit that gets charged, so no
// operation is ever counted twice — and the engine's run loop surfaces
// ErrStepLimit; without this, a livelocked program whose operations
// all retire inline would spin the host forever.
func (e *Engine) ChargeStep() bool {
	if e.work+1 >= e.maxSteps {
		return true
	}
	e.work++
	return false
}

// ChargeBudget returns how many further ChargeStep calls would succeed
// from the current state. Closed-form spin accounting uses this to
// charge a whole run of inline probes at once (via ChargeN) while
// stopping at exactly the operation where step-by-step charging would
// have hit the budget.
func (e *Engine) ChargeBudget() uint64 {
	if e.work+1 >= e.maxSteps {
		return 0
	}
	return e.maxSteps - 1 - e.work
}

// ChargeN charges n units of inline work in one call. n must not exceed
// ChargeBudget(); the pairing keeps batched charging bit-identical to n
// individual ChargeStep calls.
func (e *Engine) ChargeN(n uint64) { e.work += n }

// Exhausted reports whether the livelock budget has been spent. External
// drivers (the machine's baton-passing run loop steps the engine itself
// rather than calling Run) use this to surface ErrStepLimit.
func (e *Engine) Exhausted() bool { return e.work > e.maxSteps }

// Reset returns the engine to its initial state — clock at zero, queue
// empty, sequence and step counters cleared — while keeping the event
// heap's backing array, so a pooled simulation pays no scheduling
// allocations on reuse. The step limit is preserved; callers that pool
// across configurations reapply SetMaxSteps.
func (e *Engine) Reset() {
	e.events = e.events[:0]
	e.linear = true
	e.minIdx = 0
	e.now = 0
	e.seq = 0
	e.steps = 0
	e.work = 0
}

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.events) }

// Seq returns the scheduling sequence counter: the seq of the most
// recently scheduled event. Closed-form window accounting uses it to
// compute the sequence numbers that elided AtEvent calls would have
// consumed.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingEvent is a read-only view of one queued event, exposed so the
// simulation layer can run queue-wide analyses — the machine layer's
// spin-window detector scans the whole queue to find a quiescent
// horizon. Index order is the queue's internal layout order, not
// firing order.
type PendingEvent struct {
	When Time
	Seq  uint64
	Kind EventKind
	Arg0 int32
	Arg1 int32
}

// PendingAt returns the i-th pending event in internal layout order.
// The index is stable only until the next scheduling or stepping call.
func (e *Engine) PendingAt(i int) PendingEvent {
	ev := &e.events[i]
	return PendingEvent{When: ev.when, Seq: ev.seq, Kind: ev.kind, Arg0: ev.arg0, Arg1: ev.arg1}
}

// PurgePending removes every pending event for which match returns
// true and restores queue order; it returns how many were removed. The
// machine layer uses it to drop a reborn processor's stale wakeups at
// recovery. Survivors keep their (when, seq) keys, so pop order among
// them is unchanged, and no counter (steps, work, seq) moves: a purge is
// pure queue surgery, observable only through the events that no longer
// fire.
func (e *Engine) PurgePending(match func(PendingEvent) bool) int {
	kept := e.events[:0]
	removed := 0
	for i := range e.events {
		ev := e.events[i]
		if match(PendingEvent{When: ev.when, Seq: ev.seq, Kind: ev.kind, Arg0: ev.arg0, Arg1: ev.arg1}) {
			removed++
			continue
		}
		kept = append(kept, ev)
	}
	if removed == 0 {
		return 0
	}
	e.events = kept
	if e.linear {
		e.rescanMin()
	} else {
		e.heapify()
	}
	return removed
}

// WindowEvent is one window-candidate event collected by ScanWindow:
// payload plus the queue index RetimePending needs.
type WindowEvent struct {
	When  Time
	Seq   uint64
	Arg0  int32
	Index int32
}

// ScanWindow partitions the pending events for a closed-form window in
// one pass: events of kind `kind` whose Arg0 bit is set in eligible
// and whose Arg1 equals arg1 — the caller anchors the window on the
// next-to-fire event's address, so concurrent storms on other words
// cannot steal the scan — are appended to buf (reused across calls;
// pass buf[:0]); every other event lowers the returned horizon, the
// earliest (when, seq) the window must not reach. This is the hot half
// of the machine layer's spin-window detector, kept inside the engine
// so the scan touches the event array directly instead of copying
// every entry out through PendingAt.
func (e *Engine) ScanWindow(kind EventKind, arg1 int32, eligible []uint64, buf []WindowEvent) (
	set []WindowEvent, horizonWhen Time, horizonSeq uint64, haveHorizon bool) {
	for i := range e.events {
		ev := &e.events[i]
		if ev.kind == kind && ev.arg1 == arg1 {
			a0 := ev.arg0
			if eligible[a0>>6]&(uint64(1)<<uint(a0&63)) != 0 {
				buf = append(buf, WindowEvent{When: ev.when, Seq: ev.seq, Arg0: a0, Index: int32(i)})
				continue
			}
		}
		if !haveHorizon || ev.when < horizonWhen || (ev.when == horizonWhen && ev.seq < horizonSeq) {
			haveHorizon, horizonWhen, horizonSeq = true, ev.when, ev.seq
		}
	}
	return buf, horizonWhen, horizonSeq, haveHorizon
}

// PopBudget returns how many further events may fire before the step
// limit trips (Step/StepPayload charge one unit of work per event, and
// Exhausted reports work > maxSteps). Closed-form window accounting
// caps its elided pops here so a livelocked storm still trips
// ErrStepLimit at exactly the event where per-event execution would.
func (e *Engine) PopBudget() uint64 {
	if e.work >= e.maxSteps {
		return 0
	}
	return e.maxSteps - e.work
}

// RetimePending re-addresses the pending event at index i (a PendingAt
// or WindowEvent index) to (when, seq), exactly as if it had been
// popped and a successor scheduled there. Only valid between
// queue-stable points; the caller must finish the batch with
// FinishWindow so counters and queue order are restored. Small enough
// to inline into the machine layer's window-commit loop.
func (e *Engine) RetimePending(i int, when Time, seq uint64) {
	e.events[i].when = when
	e.events[i].seq = seq
}

// FinishWindow commits a closed-form fast-forward of pops elided event
// firings after a batch of RetimePending calls: the step, work, and
// sequence counters advance as if pops events had been popped and each
// had scheduled one successor, and queue order is restored. The caller
// (the machine layer's spin-window batcher) is responsible for the
// equivalence argument: every retimed (when, seq) must be what
// event-by-event execution would have left pending, pops must not
// exceed PopBudget(), and the retimed seqs must lie in
// (Seq(), Seq()+pops]. The engine clock is not advanced; it catches up
// at the next pop, which no simulated quantity can observe.
func (e *Engine) FinishWindow(pops uint64) {
	e.steps += pops
	e.work += pops
	e.seq += pops
	if e.linear {
		e.rescanMin()
	} else {
		e.heapify()
	}
}

// NextTime returns the timestamp of the earliest pending event and
// whether one exists. This is what makes conservative lookahead possible
// in the machine layer: an operation whose completion time precedes every
// pending event can finish inline, because no other event could have
// observed or perturbed it.
func (e *Engine) NextTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	if e.linear {
		return e.events[e.minIdx].when, true
	}
	return e.events[0].when, true
}

// NextPeek returns the kind and payload arguments of the earliest
// pending event, without firing it — the cheap peek the machine
// layer's window trigger uses to decide whether a queue scan could pay
// off (a window can only form when the very next event is itself an
// eligible probe of a live storm; anything else would be the horizon
// and leave the window empty).
func (e *Engine) NextPeek() (EventKind, int32, int32, bool) {
	if len(e.events) == 0 {
		return 0, 0, 0, false
	}
	i := 0
	if e.linear {
		i = e.minIdx
	}
	return e.events[i].kind, e.events[i].arg0, e.events[i].arg1, true
}

// clamp keeps the clock monotonic: scheduling in the past is an error in
// the caller, clamped to "now" so bugs stay visible (time never runs
// backward) without corrupting the heap invariant.
func (e *Engine) clamp(t Time) Time {
	if t < e.now {
		return e.now
	}
	return t
}

// AtEvent schedules an event at absolute time t. The payload travels by
// value through the queue, so scheduling allocates nothing.
func (e *Engine) AtEvent(t Time, kind EventKind, arg0, arg1 int32) {
	e.seq++
	e.push(event{when: e.clamp(t), seq: e.seq, kind: kind, arg0: arg0, arg1: arg1})
}

// AfterEvent schedules an event d cycles from now; a negative delay
// clamps to now.
func (e *Engine) AfterEvent(d Time, kind EventKind, arg0, arg1 int32) {
	if d < 0 {
		d = 0
	}
	e.AtEvent(e.now+d, kind, arg0, arg1)
}

// Step runs the single next event, advancing the clock to its timestamp.
// It reports whether an event was available.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.when
	e.steps++
	e.work++
	if e.handler == nil {
		panic(fmt.Sprintf("sim: event kind=%d fired with no handler installed", ev.kind))
	}
	e.handler(ev.kind, ev.arg0, ev.arg1)
	return true
}

// StepPayload pops the next event, advances the clock, and returns the
// event's payload directly instead of routing it through the installed
// Handler — the hot-path form of Step for external drive loops. fired
// is false when the queue is empty.
func (e *Engine) StepPayload() (kind EventKind, arg0, arg1 int32, fired bool) {
	if len(e.events) == 0 {
		return 0, 0, 0, false
	}
	ev := e.pop()
	e.now = ev.when
	e.steps++
	e.work++
	return ev.kind, ev.arg0, ev.arg1, true
}

// Run processes events until the queue drains or the step limit trips.
func (e *Engine) Run() error {
	for e.Step() {
		if e.work > e.maxSteps {
			return fmt.Errorf("%w after %d events at t=%d", ErrStepLimit, e.steps, e.now)
		}
	}
	return nil
}

// RunUntil processes events with timestamps <= deadline.
func (e *Engine) RunUntil(deadline Time) error {
	for {
		next, ok := e.NextTime()
		if !ok || next > deadline {
			break
		}
		if !e.Step() {
			break
		}
		if e.work > e.maxSteps {
			return fmt.Errorf("%w after %d events at t=%d", ErrStepLimit, e.steps, e.now)
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

// The heap is 4-ary: children of node i sit at 4i+1..4i+4. A wider node
// halves the tree height relative to a binary heap, trading a few extra
// comparisons per level for fewer cache-missing levels — the standard
// layout for event queues whose entries are small values.
const heapArity = 4

func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	n := len(e.events)
	if e.linear {
		if n == 1 || ev.before(&e.events[e.minIdx]) {
			e.minIdx = n - 1
		}
		if n > linearMax {
			e.heapify()
		}
		return
	}
	e.siftUp(n - 1)
}

func (e *Engine) pop() event {
	h := e.events
	n := len(h) - 1
	if e.linear {
		i := e.minIdx
		top := h[i]
		h[i] = h[n]
		e.events = h[:n]
		e.rescanMin()
		return top
	}
	top := h[0]
	h[0] = h[n]
	e.events = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

// rescanMin recomputes the cached minimum of the unsorted linear queue:
// one sequential pass, branch-friendly and cache-dense at the small
// populations the linear mode is reserved for.
func (e *Engine) rescanMin() {
	h := e.events
	m := 0
	for i := 1; i < len(h); i++ {
		if h[i].before(&h[m]) {
			m = i
		}
	}
	e.minIdx = m
}

// heapify converts the unsorted queue into a 4-ary min-heap; the engine
// stays in heap mode until Reset. Crossing the threshold mid-run is
// rare (the population tracks the processor count).
func (e *Engine) heapify() {
	e.linear = false
	for i := (len(e.events) - 2) / heapArity; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if h[parent].before(&ev) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		best := first
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if ev.before(&h[best]) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}
