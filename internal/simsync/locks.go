// Package simsync implements the 1991 synchronization-algorithm zoo on
// the simulated multiprocessor of internal/machine: the spin-lock and
// barrier baselines of the era, plus QSync — the reconstructed "new
// synchronization mechanism" — a one-word queueing cell with local-only
// spinning and direct hand-off.
//
// Algorithms are written against the simulated ISA, so the package
// measures exactly what the 1991 papers measured: elapsed cycles and
// interconnect transactions per synchronization operation, with no
// interference from the Go runtime scheduler.
package simsync

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// Lock is a simulated mutual-exclusion lock. Acquire blocks the calling
// processor until it holds the lock; Release must be called by the
// holder.
type Lock interface {
	Acquire(p *machine.Proc)
	Release(p *machine.Proc)
}

// ScriptedRelease is implemented by locks whose Release is a single
// plain store whose address and value are fixed from the moment the
// lock is held. Workload runners use it to fold the critical section
// and the release into one machine-driven continuation script
// (machine.RunScript), eliminating the holder-side goroutine handoffs.
//
// ReleaseScript must be called exactly once per Acquire, by the holder,
// and replaces the Release call for that acquisition. Every
// implementation's Release is p.Store(l.ReleaseScript(p)), so the store
// and its host-side bookkeeping (gt's flag flip) are written once;
// calling it any earlier than Release is safe because only processors
// *holding* the lock mutate that state, and the simulation is
// single-threaded. Under a fault plan a holder can die between
// ReleaseScript and the scripted store, leaving that bookkeeping done
// without the release; none of the locks implementing it survives a
// dead holder in any case. Locks whose release performs simulated reads
// or RMWs (qsync's successor handoff) cannot implement it.
type ScriptedRelease interface {
	Lock
	ReleaseScript(p *machine.Proc) (machine.Addr, machine.Word)
}

// LockMaker constructs a lock on a machine, allocating whatever
// simulated memory the algorithm needs.
type LockMaker func(m *machine.Machine) Lock

// LockInfo describes one lock algorithm for registries and sweeps.
type LockInfo struct {
	Name string
	Make LockMaker
	FIFO bool // whether the algorithm guarantees FIFO granting
}

// ---------------------------------------------------------------------
// test&set
// ---------------------------------------------------------------------

// tasLock is the naive test&set spin lock: every retry is an atomic
// read-modify-write, so every spinning processor hammers the
// interconnect for the whole time the lock is held.
type tasLock struct {
	l machine.Addr
}

// NewTAS builds a test&set lock.
func NewTAS(m *machine.Machine) Lock {
	return &tasLock{l: m.AllocShared(1)}
}

func (t *tasLock) Acquire(p *machine.Proc) {
	// The raw probe storm, engine-batched: every retry is still an
	// atomic read-modify-write hammering the interconnect, but the
	// whole run of failed probes is charged without waking this
	// goroutine once per probe. The zero Backoff declares the schedule
	// draw-free and constant-period, which is exactly what makes a
	// contended tas storm eligible for cross-processor spin windows:
	// interleaved probes from many spinners fast-forward in closed
	// form (machine/window.go).
	p.SpinTAS(t.l, machine.Backoff{})
}

func (t *tasLock) Release(p *machine.Proc) {
	p.Store(t.ReleaseScript(p))
}

func (t *tasLock) ReleaseScript(p *machine.Proc) (machine.Addr, machine.Word) {
	return t.l, 0
}

// ---------------------------------------------------------------------
// test&test&set
// ---------------------------------------------------------------------

// ttasLock spins with ordinary reads (cache hits on a coherent machine)
// and attempts the test&set only when the lock looks free. Traffic drops
// from continuous to one burst per release — but the burst still grows
// with the number of spinners.
type ttasLock struct {
	l machine.Addr
}

// NewTTAS builds a test&test&set lock.
func NewTTAS(m *machine.Machine) Lock {
	return &ttasLock{l: m.AllocShared(1)}
}

func (t *ttasLock) Acquire(p *machine.Proc) {
	// The read-spin phase is event-silent on a coherent machine
	// (watcher-parked until a write invalidates) and jitter-polled on
	// NUMA, and the post-release test&set burst falls back to the read
	// spin on failure — so TTAS waits never enter a constant-period
	// probe rotation. They are window-ineligible by construction:
	// their events (and the watchers they leave on the lock word)
	// bound any raw-TAS window instead of joining it.
	p.SpinTTAS(t.l)
}

func (t *ttasLock) Release(p *machine.Proc) {
	p.Store(t.ReleaseScript(p))
}

func (t *ttasLock) ReleaseScript(p *machine.Proc) (machine.Addr, machine.Word) {
	return t.l, 0
}

// ---------------------------------------------------------------------
// test&set with bounded exponential backoff (Anderson 1990)
// ---------------------------------------------------------------------

// BackoffParams tunes the exponential backoff lock. The F5 ablation
// sweeps these; the point of the 1991 mechanism is that it needs no such
// tuning.
type BackoffParams struct {
	Base sim.Time // initial backoff
	Cap  sim.Time // maximum backoff
}

// DefaultBackoff matches the common guidance of the era: start around a
// bus transaction, cap near the expected total contention window.
var DefaultBackoff = BackoffParams{Base: 16, Cap: 1024}

type backoffLock struct {
	l      machine.Addr
	params BackoffParams
}

// NewTASBackoff builds a test&set lock with default exponential backoff.
func NewTASBackoff(m *machine.Machine) Lock {
	return NewTASBackoffParams(m, DefaultBackoff)
}

// NewTASBackoffParams builds a test&set lock with explicit backoff
// parameters (used by the F5 sensitivity ablation).
func NewTASBackoffParams(m *machine.Machine, bp BackoffParams) Lock {
	if bp.Base <= 0 {
		bp.Base = 1
	}
	if bp.Cap < bp.Base {
		bp.Cap = bp.Base
	}
	return &backoffLock{l: m.AllocShared(1), params: bp}
}

func (t *backoffLock) Acquire(p *machine.Proc) {
	// Anderson-style bounded exponential backoff with proportional
	// jitter: delay cur + rng.Time(cur) after each failed probe, cur
	// doubling up to Cap. The schedule (and its RNG draws) is replayed
	// by the engine's spin machine, probe for probe. PropJitter
	// declares the schedule RNG-dependent, which makes these waits
	// window-ineligible: every probe must consume its jitter draw at
	// the right stream position, so tas-bo storms replay per-event and
	// their pending probes act as window horizons (the mixed-storm
	// determinism test pins the fallback).
	p.SpinTAS(t.l, machine.Backoff{Base: t.params.Base, Cap: t.params.Cap, PropJitter: true})
}

func (t *backoffLock) Release(p *machine.Proc) {
	p.Store(t.ReleaseScript(p))
}

func (t *backoffLock) ReleaseScript(p *machine.Proc) (machine.Addr, machine.Word) {
	return t.l, 0
}

// ---------------------------------------------------------------------
// ticket lock
// ---------------------------------------------------------------------

// ticketLock grants in FIFO order using a fetch&add ticket dispenser.
// Plain version spins on now-serving (a coherent-cache spin, but every
// release invalidates every waiter); the backoff version estimates its
// distance from the head and sleeps proportionally.
//
// The backoff version's wait is a continuation script
// (machine.RunScript), one per processor, encoding this Go poll loop op
// for op:
//
//	for {
//		s := p.Load(serving)
//		if s == ticket {
//			break
//		}
//		p.Delay(sim.Time(ticket-s) * propK)
//	}
//
// The loop itself, verbatim, is the closure twin in twins_test.go.
type ticketLock struct {
	next    machine.Addr
	serving machine.Addr
	propK   sim.Time // 0: plain spin; >0: proportional backoff factor
	held    machine.Word
	waits   []ticketWait // propK > 0, per processor: the wait script
}

// The proportional-backoff wait script's ops, by pc.
const (
	ticketLoad    = iota // ContLoad of now-serving
	ticketTest           // ContBranch: our turn (end), or size the backoff
	ticketBackoff        // ContDelay of (ticket-s)*propK
	ticketLoop           // ContBranch: reload
	ticketOps
)

// ticketWait is one processor's wait script and the ticket it waits for.
type ticketWait struct {
	propK  sim.Time
	ticket machine.Word
	ops    [ticketOps]machine.ContOp
}

// NewTicket builds a plain ticket lock.
func NewTicket(m *machine.Machine) Lock {
	return &ticketLock{next: m.AllocShared(1), serving: m.AllocShared(1)}
}

// NewTicketBackoff builds a ticket lock with proportional backoff and
// its per-processor wait scripts.
func NewTicketBackoff(m *machine.Machine) Lock {
	t := &ticketLock{next: m.AllocShared(1), serving: m.AllocShared(1), propK: 24}
	t.waits = make([]ticketWait, m.Procs())
	for i := range t.waits {
		w := &t.waits[i]
		w.propK = t.propK
		w.ops = [ticketOps]machine.ContOp{
			ticketLoad:    {Kind: machine.ContLoad, Addr: t.serving},
			ticketTest:    {Kind: machine.ContBranch, Branch: w.test},
			ticketBackoff: {Kind: machine.ContDelay},
			ticketLoop:    {Kind: machine.ContBranch, Branch: toTop},
		}
	}
	return t
}

// test judges the loaded now-serving value s: the script ends on our
// ticket, and otherwise backs off in proportion to the distance.
func (w *ticketWait) test(_ *machine.Proc, s machine.Word) int {
	if s == w.ticket {
		return ticketOps
	}
	w.ops[ticketBackoff].Dur = sim.Time(w.ticket-s) * w.propK
	return ticketBackoff
}

func (t *ticketLock) Acquire(p *machine.Proc) {
	ticket := p.FetchAdd(t.next, 1)
	if t.propK > 0 {
		w := &t.waits[p.ID()]
		w.ticket = ticket
		p.RunScript(w.ops[:])
	} else {
		p.SpinUntilEq(t.serving, ticket)
	}
	// Only the holder writes this host-side field; the simulation is
	// single-threaded, so recording the held ticket here is safe.
	t.held = ticket
}

func (t *ticketLock) Release(p *machine.Proc) {
	p.Store(t.ReleaseScript(p))
}

func (t *ticketLock) ReleaseScript(p *machine.Proc) (machine.Addr, machine.Word) {
	// t.held is stable for the whole critical section: the next holder
	// records its ticket only after its spin sees our serving store.
	return t.serving, t.held + 1
}

// ---------------------------------------------------------------------
// Anderson array-queue lock (1990)
// ---------------------------------------------------------------------

// andersonLock queues waiters on a ring of flags; each waiter spins on
// its own slot, so a release invalidates exactly one spinner. The array
// is statically sized at one slot per processor and lives in shared
// (interleaved) memory — on a NUMA machine most waiters therefore spin
// on a *remote* slot, the algorithm's documented weakness.
type andersonLock struct {
	slots machine.Addr // ring of P flags
	tail  machine.Addr // fetch&add ticket into the ring
	size  machine.Word
	held  machine.Word // ring index held; single holder, host-side
}

// NewAnderson builds an Anderson array-queue lock sized to the machine.
func NewAnderson(m *machine.Machine) Lock {
	size := m.Procs()
	a := &andersonLock{
		slots: m.AllocShared(size),
		tail:  m.AllocShared(1),
		size:  machine.Word(size),
	}
	m.Poke(a.slots, 1) // slot 0 starts as "has lock"
	return a
}

func (a *andersonLock) Acquire(p *machine.Proc) {
	idx := p.FetchAdd(a.tail, 1) % a.size
	slot := a.slots + machine.Addr(idx)
	p.SpinUntilEq(slot, 1)
	p.Store(slot, 0) // reset for the next lap around the ring
	a.held = idx
}

func (a *andersonLock) Release(p *machine.Proc) {
	p.Store(a.ReleaseScript(p))
}

func (a *andersonLock) ReleaseScript(p *machine.Proc) (machine.Addr, machine.Word) {
	// a.held is stable for the whole critical section: the next holder
	// records its ring index only after its slot spin sees our store.
	next := (a.held + 1) % a.size
	return a.slots + machine.Addr(next), 1
}

// ---------------------------------------------------------------------
// Graunke & Thakkar array lock (1990)
// ---------------------------------------------------------------------

// gtLock is Graunke & Thakkar's lock: each processor owns a flag word;
// the lock word packs (whose flag to watch, the value it had when that
// processor enqueued). Arrival is one fetch&store; release flips the
// holder's own flag. Each waiter spins on its *predecessor's* flag —
// fine with coherent caches, remote on NUMA (the same weakness as
// Anderson's lock, which is exactly why it appears in the sweep).
type gtLock struct {
	lock  machine.Addr   // packed (flag index << 1 | expected value)
	flags machine.Addr   // P per-processor flag words (shared placement)
	vals  []machine.Word // host-tracked current value of each flag
	procs int
}

// NewGraunkeThakkar builds a Graunke-Thakkar lock.
func NewGraunkeThakkar(m *machine.Machine) Lock {
	g := &gtLock{
		lock:  m.AllocShared(1),
		flags: m.AllocShared(m.Procs()),
		vals:  make([]machine.Word, m.Procs()),
		procs: m.Procs(),
	}
	// The lock starts pointing at processor 0's flag with the *opposite*
	// of its current value, so the first arrival proceeds immediately.
	m.Poke(g.lock, g.pack(0, 1))
	return g
}

func (g *gtLock) pack(idx int, val machine.Word) machine.Word {
	return machine.Word(idx)<<1 | (val & 1)
}

func (g *gtLock) Acquire(p *machine.Proc) {
	me := p.ID()
	myVal := g.vals[me]
	old := p.FetchStore(g.lock, g.pack(me, myVal))
	prevIdx := int(old >> 1)
	prevVal := old & 1
	// Wait until the predecessor flips its flag away from the value it
	// had when it enqueued. A read-spin on a per-processor flag: like
	// every SpinUntilPred wait (qsync's local spins included) it is
	// window-ineligible by kind — watcher-parked on Bus, jitter-polled
	// on remote NUMA words — and never appears in a probe rotation.
	p.SpinUntilPred(g.flags+machine.Addr(prevIdx),
		machine.Pred{Op: machine.PredNe, Mask: 1, Want: prevVal})
}

func (g *gtLock) Release(p *machine.Proc) {
	p.Store(g.ReleaseScript(p))
}

func (g *gtLock) ReleaseScript(p *machine.Proc) (machine.Addr, machine.Word) {
	// Flipping the host-tracked flag value here (before the critical
	// section) instead of at release time is safe: only processor me
	// ever reads or writes vals[me], and the simulated flag word does
	// not change until the scripted store issues.
	me := p.ID()
	g.vals[me] ^= 1
	return g.flags + machine.Addr(me), g.vals[me]
}

// ---------------------------------------------------------------------
// QSync — the reconstructed "new synchronization mechanism"
// ---------------------------------------------------------------------

// Node layout within a processor's local memory.
const (
	qNext   = 0 // successor pointer (PtrWord encoding; 0 = none)
	qStatus = 1 // 1 = waiting, 0 = granted
	qWords  = 2
)

// qsyncLock is the mechanism applied to mutual exclusion: the lock is a
// single shared word (the cell) holding the queue tail. A processor
// enqueues its local record with one fetch&store, links itself behind
// its predecessor with one remote store, and then spins only on its own
// record — local memory on NUMA, its own cache line on a bus. Release is
// a direct hand-off: one store into the successor's record. Interconnect
// cost per acquire/release pair is therefore constant, independent of
// the number of waiters.
type qsyncLock struct {
	cell  machine.Addr   // queue tail; Word(0) = free
	nodes []machine.Addr // per-processor record, in local memory
}

// NewQSync builds the mechanism's mutual-exclusion lock.
func NewQSync(m *machine.Machine) Lock {
	q := &qsyncLock{cell: m.AllocShared(1), nodes: make([]machine.Addr, m.Procs())}
	for i := range q.nodes {
		q.nodes[i] = m.AllocLocal(i, qWords)
	}
	return q
}

func (q *qsyncLock) Acquire(p *machine.Proc) {
	n := q.nodes[p.ID()]
	p.Store(n+qNext, 0)
	pred := p.FetchStore(q.cell, machine.PtrWord(n))
	if pred == 0 {
		return // cell was free: we hold the lock
	}
	// Must appear "waiting" before the predecessor can see us.
	p.Store(n+qStatus, 1)
	p.Store(machine.WordPtr(pred)+qNext, machine.PtrWord(n))
	p.SpinUntilEq(n+qStatus, 0) // local spin
}

func (q *qsyncLock) Release(p *machine.Proc) {
	n := q.nodes[p.ID()]
	next := p.Load(n + qNext)
	if next == 0 {
		// No known successor: try to swing the cell back to free.
		if p.CompareAndSwap(q.cell, machine.PtrWord(n), 0) {
			return
		}
		// A successor is mid-enqueue; wait (locally) for the link.
		next = p.SpinWhileEq(n+qNext, 0)
	}
	p.Store(machine.WordPtr(next)+qStatus, 0) // direct hand-off
}
