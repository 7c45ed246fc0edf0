// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a queue of pending events.
// Events scheduled for the same instant fire in scheduling order, so a
// simulation run is a pure function of its inputs: two runs with the same
// seed and the same program produce bit-identical results. This determinism
// is what lets the machine model (internal/machine) count cycles and
// interconnect transactions exactly, the way 1991-era synchronization
// studies did on real hardware.
//
// The queue is a one-cycle calendar (Brown, CACM 1988): a FIFO bucket
// per cycle over a fixed span ahead of the clock, a bitmap of non-empty
// buckets to find the next instant, and a 4-ary heap for the rare event
// scheduled beyond the span. Scheduling and popping are O(1), and a
// walk of the buckets visits pending events in firing order, which is
// what the machine layer's spin-window detector reads (ScanWindow).
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
	"math/bits"
)

// Time is a point on the simulated clock, measured in cycles.
type Time int64

// EventKind tags the payload of a typed event. Kinds are defined by the
// simulation layer that installs the Handler; the engine only routes them.
type EventKind uint8

const (
	// EvDispatch wakes a processor; arg0 is the processor index. The
	// simulation layer routes it by the processor's own state: a
	// processor in a machine-driven spin wait or a continuation script
	// has its next operations executed directly in the drive loop, any
	// other resumes its goroutine. arg1 is free for the simulation
	// layer's use (the machine layer puts a spin probe's address there,
	// for ScanWindow).
	EvDispatch EventKind = iota
	// EvFault materializes a scheduled machine fault (today: a permanent
	// processor crash); arg0 is the processor index. Keeping faults in
	// the event queue — rather than checking fault tables lazily — means
	// a pending EvFault bounds every processor's inline run-ahead like
	// any other event, which is what keeps faulted runs bit-identical
	// across execution paths.
	EvFault
	// EvRecover rebirths a crashed processor; arg0 is the processor
	// index. The simulation layer re-registers the processor at its
	// recovery entry point with reset local state — nothing the dead
	// incarnation held is released. Like EvFault, a pending EvRecover
	// is an ordinary queue entry that bounds inline run-ahead.
	EvRecover
)

// Handler consumes events. A single handler is installed by the owning
// simulation layer (SetHandler); Step calls it with the event's kind
// and payload each time an event fires.
type Handler func(kind EventKind, arg0, arg1 int32)

// event is a queue entry: 32 bytes carrying its whole payload by value,
// so pushing and popping never touches the garbage collector. In the
// calendar, next links an entry to the one behind it in its bucket (0
// ends the bucket); the overflow heap leaves it unused.
type event struct {
	when Time
	seq  uint64 // tie-break: FIFO among same-instant events
	arg0 int32
	arg1 int32
	next int32
	kind EventKind
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

// calSpan is the calendar's reach in cycles: an event due less than
// calSpan cycles after the clock goes to the bucket of its instant,
// anything later to the overflow heap. Every pending calendar event is
// due in [now, now+calSpan), so a bucket holds one instant, and since
// each push carries the largest sequence number yet, appending keeps a
// bucket in exact (when, seq) order. The span is sized by measurement:
// the paper's evaluation schedules 99.9% of its events under 4,096
// cycles ahead, while the P=256 and P=1024 storms keep their pending
// probes up to 64K cycles ahead (a probe rotation of 1,024 remote
// spinners), which a shorter span would hand to the heap.
const (
	calSpan = 1 << 16
	calMask = calSpan - 1
	// calWords is the bucket bitmap's length in words, and the summary
	// bitmap (one bit per non-zero bitmap word) is calWords/64 words.
	calWords = calSpan / 64
)

// bucket is the FIFO of one calendar instant: first and last slot.
type bucket struct{ head, tail int32 }

// Engine is a deterministic discrete-event scheduler.
// The zero value is not usable; call NewEngine.
//
// Pending events live in one of two containers. The calendar holds
// every event due within calSpan cycles of the clock, each in its
// instant's FIFO bucket, with the earliest one's slot cached (first) so
// that NextTime and NextPeek are O(1). Events scheduled further ahead
// go to the overflow heap and stay there: the next event is always the
// (when, seq) minimum of the calendar's first event and the heap top,
// so where an event waits never changes when it fires.
type Engine struct {
	now      Time
	seq      uint64
	steps    uint64 // events fired
	work     uint64 // events fired + inline work charged via ChargeStep
	maxSteps uint64
	handler  Handler

	slots   []event // calendar entries; slot 0 is the nil link
	free    int32   // free slot list, linked through next (0: none)
	buckets *[calSpan]bucket
	occ     *[calWords]uint64      // bit b set: bucket b is non-empty
	occSum  *[calWords / 64]uint64 // bit w set: occ[w] != 0
	calLen  int                    // events in the calendar
	first   int32                  // slot of the calendar's earliest event

	ovf       []event // 4-ary min-heap of events beyond the span
	ovfPushes uint64
}

// DefaultMaxSteps bounds runaway simulations. Each simulated memory
// operation is roughly one event, so this allows on the order of 10^8
// operations before the engine declares a livelock.
const DefaultMaxSteps = 200_000_000

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		maxSteps: DefaultMaxSteps,
		slots:    make([]event, 1, 64),
		buckets:  new([calSpan]bucket),
		occ:      new([calWords]uint64),
		occSum:   new([calWords / 64]uint64),
	}
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

// Exhausted reports whether the livelock budget has been spent. External
// drivers (the machine's baton-passing run loop steps the engine itself
// rather than calling Run) use this to surface ErrStepLimit.
func (e *Engine) Exhausted() bool { return e.work > e.maxSteps }

// Reset returns the engine to its initial state — clock at zero, queue
// empty, sequence, step and overflow counters cleared — while keeping
// every backing array, so a pooled simulation pays no scheduling
// allocations on reuse. Emptying the calendar clears only the bitmap
// words that are set. The step limit is preserved; callers that pool
// across configurations reapply SetMaxSteps.
func (e *Engine) Reset() {
	for s, sum := range e.occSum {
		for ; sum != 0; sum &= sum - 1 {
			e.occ[s<<6+bits.TrailingZeros64(sum)] = 0
		}
		e.occSum[s] = 0
	}
	e.slots = e.slots[:1]
	e.free = 0
	e.calLen = 0
	e.ovf = e.ovf[:0]
	e.ovfPushes = 0
	e.now = 0
	e.seq = 0
	e.steps = 0
	e.work = 0
}

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return e.calLen + len(e.ovf) }

// Seq returns the scheduling sequence counter: the seq of the most
// recently scheduled event (a window commit draws one per member).
func (e *Engine) Seq() uint64 { return e.seq }

// OverflowPushes returns how many events have landed in the overflow
// heap since the last Reset: scheduled, or retimed by a window commit,
// calSpan or more cycles ahead of the clock. Every other event took
// the calendar's O(1) path, so this is the count of pushes that paid a
// heap sift. It is a host-side count, like the machine layer's
// InlineOps, and no simulated quantity depends on it.
func (e *Engine) OverflowPushes() uint64 { return e.ovfPushes }

// PendingEvent is a read-only view of one queued event, handed to
// PurgePending's match function.
type PendingEvent struct {
	When Time
	Seq  uint64
	Kind EventKind
	Arg0 int32
	Arg1 int32
}

func (ev *event) view() PendingEvent {
	return PendingEvent{When: ev.when, Seq: ev.seq, Kind: ev.kind, Arg0: ev.arg0, Arg1: ev.arg1}
}

// PurgePending removes every pending event for which match returns
// true and returns how many were removed. The machine layer uses it to
// drop a reborn processor's stale wakeups at recovery. Survivors keep
// their (when, seq) keys and their order within each bucket, so pop
// order among them is unchanged, and no counter (steps, work, seq)
// moves: a purge is pure queue surgery, observable only through the
// events that no longer fire.
func (e *Engine) PurgePending(match func(PendingEvent) bool) int {
	removed := 0
	for w, word := range e.occ {
		for ; word != 0; word &= word - 1 {
			b := w<<6 + bits.TrailingZeros64(word)
			var head, tail int32
			for i := e.buckets[b].head; i != 0; {
				s := &e.slots[i]
				next := s.next
				if match(s.view()) {
					s.next = e.free
					e.free = i
					e.calLen--
					removed++
				} else {
					s.next = 0
					if tail == 0 {
						head = i
					} else {
						e.slots[tail].next = i
					}
					tail = i
				}
				i = next
			}
			if head == 0 {
				e.clearBucket(b)
			} else {
				e.buckets[b] = bucket{head, tail}
			}
		}
	}
	if e.calLen > 0 {
		e.first = e.buckets[e.scan(int(e.now)&calMask)].head
	}
	// The overflow heap's survivors are compacted in place, each sifted
	// up as it is kept, so the kept prefix is a heap at every step.
	kept := e.ovf[:0]
	for _, ev := range e.ovf {
		if match(ev.view()) {
			removed++
			continue
		}
		kept = append(kept, ev)
		e.siftUp(len(kept) - 1)
	}
	e.ovf = kept
	return removed
}

// WindowEvent is one window-candidate event collected by ScanWindow.
// A window commit rewrites When to the event's retimed instant and
// hands the set back to FinishWindow.
type WindowEvent struct {
	When Time
	Arg0 int32
	slot int32
}

// ScanWindow collects the eligible run at the head of the queue for a
// spin window: walking pending events in firing order, it appends to
// buf (reused across calls; pass buf[:0]) every event of kind `kind`
// whose Arg0 bit is set in eligible and whose Arg1 equals arg1 — the
// caller anchors the window on the next-to-fire event's address, so
// concurrent storms on other words cannot steal the scan — and stops
// at the first other event. The set therefore arrives sorted, and it
// is exactly the next len(set) events to fire. Only calendar events
// join the set; the overflow heap's top ends it whatever its kind.
func (e *Engine) ScanWindow(kind EventKind, arg1 int32, eligible []uint64, buf []WindowEvent) []WindowEvent {
	var ovf *event
	if len(e.ovf) > 0 {
		ovf = &e.ovf[0]
	}
	i := e.first
	for left := e.calLen; left > 0; left-- {
		ev := &e.slots[i]
		if ovf != nil && ovf.before(ev) {
			break
		}
		a0 := ev.arg0
		if ev.kind != kind || ev.arg1 != arg1 || eligible[a0>>6]&(uint64(1)<<uint(a0&63)) == 0 {
			break
		}
		buf = append(buf, WindowEvent{When: ev.when, Arg0: a0, slot: i})
		if i = ev.next; i == 0 && left > 1 {
			i = e.buckets[e.scan((int(ev.when)+1)&calMask)].head
		}
	}
	return buf
}

// PopBudget returns how many further events may fire before the step
// limit trips (Step/StepPayload charge one unit of work per event, and
// Exhausted reports work > maxSteps). A window commit caps its set
// here so a livelocked storm still trips ErrStepLimit at exactly the
// event where per-event execution would.
func (e *Engine) PopBudget() uint64 {
	if e.work >= e.maxSteps {
		return 0
	}
	return e.maxSteps - e.work
}

// FinishWindow fires the set as a batch: set is a prefix of the last
// ScanWindow result — so it is the next len(set) events to fire — with
// When rewritten to the instant of the successor each event schedules
// when it fires. The set is unlinked from the front of the queue and
// each event relinked at its new instant, numbered Seq()+1, Seq()+2, …
// in set order, exactly as if the events had been popped in turn and
// each had scheduled its successor; the step and work counters advance
// by len(set). The caller (the machine layer's spin-window commit) is
// responsible for the equivalence argument: each retimed instant must
// be what event-by-event execution would have scheduled, no successor
// may come due before the set's last member, len(set) must not exceed
// PopBudget(), and the queue must not change between the scan and the
// commit. The engine clock is not advanced; it catches up at the next
// pop, which no simulated quantity can observe.
func (e *Engine) FinishWindow(set []WindowEvent) {
	if set[0].slot != e.first || e.calLen < len(set) {
		panic("sim: FinishWindow set is not the head of the queue")
	}
	// In firing order each member heads its bucket once the ones before
	// it are gone, so the prefix unlinks bucket by bucket; one scan then
	// finds the event after it.
	var b int
	for _, w := range set {
		s := &e.slots[w.slot]
		b = int(s.when) & calMask
		if s.next != 0 {
			e.buckets[b].head = s.next
		} else {
			e.clearBucket(b)
		}
	}
	if e.calLen -= len(set); e.calLen > 0 {
		e.first = e.buckets[e.scan(b)].head
	}
	for _, w := range set {
		e.seq++
		s := &e.slots[w.slot]
		s.when, s.seq, s.next = e.clamp(w.When), e.seq, 0
		if s.when-e.now >= calSpan {
			e.pushOverflow(*s)
			s.next = e.free
			e.free = w.slot
			continue
		}
		e.link(w.slot)
	}
	e.steps += uint64(len(set))
	e.work += uint64(len(set))
}

// NextTime returns the timestamp of the earliest pending event and
// whether one exists. This is what makes conservative lookahead possible
// in the machine layer: an operation whose completion time precedes every
// pending event can finish inline, because no other event could have
// observed or perturbed it.
func (e *Engine) NextTime() (Time, bool) {
	if ev := e.top(); ev != nil {
		return ev.when, true
	}
	return 0, false
}

// NextPeek returns the kind and payload arguments of the earliest
// pending event, without firing it — the cheap peek the machine
// layer's window trigger uses to decide whether a queue scan could pay
// off (a window can only form when the very next event is itself an
// eligible probe of a live storm; anything else would end the set
// before it began).
func (e *Engine) NextPeek() (EventKind, int32, int32, bool) {
	if ev := e.top(); ev != nil {
		return ev.kind, ev.arg0, ev.arg1, true
	}
	return 0, 0, 0, false
}

// clamp keeps the clock monotonic: scheduling in the past is an error in
// the caller, clamped to "now" so bugs stay visible (time never runs
// backward) without corrupting the queue's order.
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
	t = e.clamp(t)
	if t-e.now >= calSpan {
		e.pushOverflow(event{when: t, seq: e.seq, kind: kind, arg0: arg0, arg1: arg1})
		return
	}
	i := e.free
	if i != 0 {
		e.free = e.slots[i].next
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, event{})
	}
	// Field by field: a composite literal would be built on the stack
	// and block-copied, a store-forwarding stall on this hot path.
	s := &e.slots[i]
	s.when, s.seq, s.arg0, s.arg1, s.next, s.kind = t, e.seq, arg0, arg1, 0, kind
	e.link(i)
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
	if e.Pending() == 0 {
		return false
	}
	kind, arg0, arg1 := e.pop()
	e.steps++
	e.work++
	if e.handler == nil {
		panic(fmt.Sprintf("sim: event kind=%d fired with no handler installed", kind))
	}
	e.handler(kind, arg0, arg1)
	return true
}

// StepPayload pops the next event, advances the clock, and returns the
// event's payload directly instead of routing it through the installed
// Handler — the hot-path form of Step for external drive loops. fired
// is false when the queue is empty.
func (e *Engine) StepPayload() (kind EventKind, arg0, arg1 int32, fired bool) {
	if e.Pending() == 0 {
		return 0, 0, 0, false
	}
	kind, arg0, arg1 = e.pop()
	e.steps++
	e.work++
	return kind, arg0, arg1, true
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

// ovfNext reports whether the overflow heap's top fires next.
func (e *Engine) ovfNext() bool {
	return len(e.ovf) > 0 && (e.calLen == 0 || e.ovf[0].before(&e.slots[e.first]))
}

// top returns the next event to fire, or nil when none is pending.
func (e *Engine) top() *event {
	if e.ovfNext() {
		return &e.ovf[0]
	}
	if e.calLen == 0 {
		return nil
	}
	return &e.slots[e.first]
}

// pop removes the next event, advances the clock to it and returns its
// payload; the queue must be non-empty. A calendar event leaves the
// front of its bucket, and when that empties the bucket the next
// non-empty one in time order becomes the front.
func (e *Engine) pop() (EventKind, int32, int32) {
	if e.ovfNext() {
		h := e.ovf
		top := &h[0]
		e.now = top.when
		kind, arg0, arg1 := top.kind, top.arg0, top.arg1
		n := len(h) - 1
		h[0] = h[n]
		e.ovf = h[:n]
		if n > 1 {
			e.siftDown(0)
		}
		return kind, arg0, arg1
	}
	i := e.first
	s := &e.slots[i]
	e.now = s.when
	b := int(s.when) & calMask
	e.calLen--
	if s.next != 0 {
		e.buckets[b].head = s.next
		e.first = s.next
	} else {
		e.clearBucket(b)
		if e.calLen > 0 {
			e.first = e.buckets[e.scan(b)].head
		}
	}
	s.next = e.free
	e.free = i
	return s.kind, s.arg0, s.arg1
}

// link appends slot i to the bucket of its instant. Every linked event
// (scheduled, or relinked by a window commit) carries the largest seq
// yet, so the tail is its place in (when, seq) order.
func (e *Engine) link(i int32) {
	ev := &e.slots[i]
	b := int(ev.when) & calMask
	bk := &e.buckets[b]
	w, bit := b>>6, uint64(1)<<uint(b&63)
	if e.occ[w]&bit == 0 {
		e.occ[w] |= bit
		e.occSum[w>>6] |= uint64(1) << uint(w&63)
		bk.head, bk.tail = i, i
	} else {
		e.slots[bk.tail].next = i
		bk.tail = i
	}
	e.calLen++
	if e.calLen == 1 || ev.when <= e.slots[e.first].when {
		e.first = bk.head
	}
}

func (e *Engine) clearBucket(b int) {
	w := b >> 6
	e.occ[w] &^= uint64(1) << uint(b&63)
	if e.occ[w] == 0 {
		e.occSum[w>>6] &^= uint64(1) << uint(w&63)
	}
}

// scan returns the first non-empty bucket at or after b in circular
// order, which is time order: every calendar event is due in
// [now, now+calSpan), so the buckets past b's position wrap around to
// instants a span later. The calendar must be non-empty. The summary
// bitmap bounds the search at calWords/64 words however sparse the
// calendar is.
func (e *Engine) scan(b int) int {
	w := b >> 6
	if m := e.occ[w] >> uint(b&63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	for w = (w + 1) & (calWords - 1); ; w = (w>>6 + 1) << 6 & (calWords - 1) {
		if m := e.occSum[w>>6] >> uint(w&63); m != 0 {
			w += bits.TrailingZeros64(m)
			return w<<6 + bits.TrailingZeros64(e.occ[w])
		}
	}
}

// The overflow heap is 4-ary: children of node i sit at 4i+1..4i+4. A
// wider node halves the tree height relative to a binary heap, trading
// a few extra comparisons per level for fewer cache-missing levels.
const heapArity = 4

func (e *Engine) pushOverflow(ev event) {
	e.ovfPushes++
	e.ovf = append(e.ovf, ev)
	e.siftUp(len(e.ovf) - 1)
}

func (e *Engine) siftUp(i int) {
	h := e.ovf
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
	h := e.ovf
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
