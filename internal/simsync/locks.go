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

// scriptedLock is a Lock whose acquire and release are continuation
// scripts (machine.RunScript): acquireOps and releaseOps return
// processor p's, which its Acquire and Release run. A lock whose
// branches rewrite operands (an address computed from a swap, a value
// observed by a load) keeps one op slice per processor. Every lock in
// LockSet is one. RunLockIn's fault-free loop calls the scripts from
// one iteration script every processor shares (machine.ContSub), so a
// lock cell's goroutines hand off only when they start and finish.
// Each script's Go form, verbatim, is the lock's closure twin in
// twins_test.go, and the determinism suites hold the two bit-identical.
type scriptedLock interface {
	Lock
	acquireOps(p *machine.Proc) []machine.ContOp
	releaseOps(p *machine.Proc) []machine.ContOp
}

// scripts is the scriptedLock half of a lock: each processor's acquire
// and release scripts. A lock whose branches rewrite operands gives
// every processor its own slices; one with no such branch shares two
// slices among all processors (sharedScripts).
type scripts struct {
	acquire, release [][]machine.ContOp
}

func newScripts(procs int) scripts {
	return scripts{acquire: make([][]machine.ContOp, procs), release: make([][]machine.ContOp, procs)}
}

// sharedScripts gives every processor the same acquire and release.
func sharedScripts(procs int, acquire, release []machine.ContOp) scripts {
	s := newScripts(procs)
	for i := range s.acquire {
		s.acquire[i], s.release[i] = acquire, release
	}
	return s
}

func (s *scripts) Acquire(p *machine.Proc) { p.RunScript(s.acquire[p.ID()]) }
func (s *scripts) Release(p *machine.Proc) { p.RunScript(s.release[p.ID()]) }

func (s *scripts) acquireOps(p *machine.Proc) []machine.ContOp { return s.acquire[p.ID()] }
func (s *scripts) releaseOps(p *machine.Proc) []machine.ContOp { return s.release[p.ID()] }

// storeZero is the release script of a lock freed by one plain store.
func storeZero(l machine.Addr) []machine.ContOp {
	return []machine.ContOp{{Kind: machine.ContStore, Addr: l}}
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
//
// Acquire is one ContSpin: the raw probe storm, engine-batched. Every
// retry is still an atomic read-modify-write hammering the
// interconnect, but the whole run of failed probes is charged without
// waking a goroutine once per probe. The zero Backoff declares the
// schedule draw-free and constant-period, which is exactly what makes a
// contended tas storm eligible for cross-processor spin windows:
// interleaved probes from many spinners fast-forward in closed form
// (machine/window.go). Release is one store of zero.
type tasLock struct {
	l machine.Addr
	scripts
}

// NewTAS builds a test&set lock.
func NewTAS(m *machine.Machine) Lock {
	l := m.AllocShared(1)
	return &tasLock{l: l, scripts: sharedScripts(m.Procs(),
		[]machine.ContOp{machine.SpinTASOp(l, machine.Backoff{}, 0)}, storeZero(l))}
}

// ---------------------------------------------------------------------
// test&test&set
// ---------------------------------------------------------------------

// ttasLock spins with ordinary reads (cache hits on a coherent machine)
// and attempts the test&set only when the lock looks free. Traffic drops
// from continuous to one burst per release — but the burst still grows
// with the number of spinners.
//
// Acquire is one ContSpin. The read-spin phase is event-silent on a
// coherent machine (watcher-parked until a write invalidates) and
// jitter-polled on NUMA, and the post-release test&set burst falls back
// to the read spin on failure — so TTAS waits never enter a
// constant-period probe rotation. They are window-ineligible by
// construction: their events (and the watchers they leave on the lock
// word) bound any raw-TAS window instead of joining it.
type ttasLock struct {
	l machine.Addr
	scripts
}

// NewTTAS builds a test&test&set lock.
func NewTTAS(m *machine.Machine) Lock {
	l := m.AllocShared(1)
	return &ttasLock{l: l, scripts: sharedScripts(m.Procs(),
		[]machine.ContOp{machine.SpinTTASOp(l)}, storeZero(l))}
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

// backoffLock is Anderson-style bounded exponential backoff with
// proportional jitter: delay cur + rng.Time(cur) after each failed
// probe, cur doubling up to Cap. Acquire is one ContSpin, whose
// schedule (and its RNG draws) the engine's spin machine replays probe
// for probe. PropJitter declares the schedule RNG-dependent, which
// makes these waits window-ineligible: every probe must consume its
// jitter draw at the right stream position, so tas-bo storms replay
// per-event and their pending probes act as window horizons (the
// mixed-storm determinism test pins the fallback).
type backoffLock struct {
	l      machine.Addr
	params BackoffParams
	scripts
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
	l := m.AllocShared(1)
	bo := machine.Backoff{Base: bp.Base, Cap: bp.Cap, PropJitter: true}
	return &backoffLock{l: l, params: bp, scripts: sharedScripts(m.Procs(),
		[]machine.ContOp{machine.SpinTASOp(l, bo, 0)}, storeZero(l))}
}

// ---------------------------------------------------------------------
// ticket lock
// ---------------------------------------------------------------------

// ticketLock grants in FIFO order using a fetch&add ticket dispenser.
// Plain version spins on now-serving (a coherent-cache spin, but every
// release invalidates every waiter); the backoff version estimates its
// distance from the head and sleeps proportionally.
//
// Acquire is a per-processor script: the fetch&add, a branch that
// records the ticket, the wait, and a host call recording the held
// ticket. The plain wait is a ContSpin aimed at the ticket; the
// backoff wait encodes this Go poll loop op for op:
//
//	for {
//		s := p.Load(serving)
//		if s == ticket {
//			break
//		}
//		p.Delay(sim.Time(ticket-s) * propK)
//	}
//
// Release is a branch aiming the store of held+1 and the store.
type ticketLock struct {
	next    machine.Addr
	serving machine.Addr
	propK   sim.Time // 0: plain spin; >0: proportional backoff factor
	held    machine.Word
	procs   []ticketProc
	scripts
}

// The acquire scripts' ops, by pc. Both open with the fetch&add and a
// branch that records the ticket and continues at ticketWait.
const (
	ticketTake   = iota // ContFetchAdd of the dispenser
	ticketRecord        // ContBranch: note the ticket, aim the plain spin
	ticketWait          // the wait's first op
)

// The plain wait's ops, by pc.
const (
	ticketSpin = ticketWait + iota // ContSpin until serving shows the ticket
	ticketHeld                     // ContCall: record the held ticket
)

// The proportional-backoff wait's ops, by pc.
const (
	ticketLoad     = ticketWait + iota // ContLoad of now-serving
	ticketTest                         // ContBranch: our turn, or size the backoff
	ticketBackoff                      // ContDelay of (ticket-s)*propK
	ticketLoop                         // ContBranch: reload
	ticketPollHeld                     // ContCall: record the held ticket
	ticketPollOps
)

// ticketProc is one processor's scripts and the ticket it waits for.
type ticketProc struct {
	ticket  machine.Word
	acquire [ticketPollOps]machine.ContOp // the plain spin uses the first ticketHeld+1
	release [2]machine.ContOp
}

// NewTicket builds a plain ticket lock.
func NewTicket(m *machine.Machine) Lock {
	return newTicket(m, 0)
}

// NewTicketBackoff builds a ticket lock with proportional backoff.
func NewTicketBackoff(m *machine.Machine) Lock {
	return newTicket(m, 24)
}

// newTicket builds a ticket lock and its per-processor scripts. The
// branches are bound once per lock and find the processor's state by
// p.ID(), as every lock's are, so a cell allocates no closure per
// processor.
func newTicket(m *machine.Machine, propK sim.Time) *ticketLock {
	t := &ticketLock{next: m.AllocShared(1), serving: m.AllocShared(1), propK: propK,
		procs: make([]ticketProc, m.Procs()), scripts: newScripts(m.Procs())}
	take := machine.ContOp{Kind: machine.ContFetchAdd, Addr: t.next, Val: 1}
	record := machine.ContOp{Kind: machine.ContBranch, Branch: t.record}
	held := machine.ContOp{Kind: machine.ContCall, Fn: t.recordHeld}
	test := machine.ContOp{Kind: machine.ContBranch, Branch: t.test}
	aimRelease := machine.ContOp{Kind: machine.ContBranch, Branch: t.aimRelease}
	for i := range t.procs {
		w := &t.procs[i]
		if propK > 0 {
			w.acquire = [ticketPollOps]machine.ContOp{
				ticketTake:     take,
				ticketRecord:   record,
				ticketLoad:     {Kind: machine.ContLoad, Addr: t.serving},
				ticketTest:     test,
				ticketBackoff:  {Kind: machine.ContDelay},
				ticketLoop:     {Kind: machine.ContBranch, Branch: toTicketLoad},
				ticketPollHeld: held,
			}
			t.acquire[i] = w.acquire[:]
		} else {
			w.acquire = [ticketPollOps]machine.ContOp{
				ticketTake:   take,
				ticketRecord: record,
				ticketSpin:   machine.SpinReadOp(t.serving, machine.Pred{Op: machine.PredEq}),
				ticketHeld:   held,
			}
			t.acquire[i] = w.acquire[:ticketHeld+1]
		}
		w.release = [2]machine.ContOp{aimRelease, {Kind: machine.ContStore, Addr: t.serving}}
		t.release[i] = w.release[:]
	}
	return t
}

// record notes the ticket the fetch&add drew and aims a plain spin at
// it.
func (t *ticketLock) record(p *machine.Proc, ticket machine.Word) int {
	w := &t.procs[p.ID()]
	w.ticket = ticket
	if t.propK == 0 {
		w.acquire[ticketSpin].Val = ticket
	}
	return ticketWait
}

// test judges the loaded now-serving value s: on our ticket the wait
// is over, and otherwise it backs off in proportion to the distance.
func (t *ticketLock) test(p *machine.Proc, s machine.Word) int {
	w := &t.procs[p.ID()]
	if s == w.ticket {
		return ticketPollHeld
	}
	w.acquire[ticketBackoff].Dur = sim.Time(w.ticket-s) * t.propK
	return ticketBackoff
}

// recordHeld records the held ticket. Only the holder writes this
// host-side field; the simulation is single-threaded, so recording it
// is safe.
func (t *ticketLock) recordHeld(p *machine.Proc) { t.held = t.procs[p.ID()].ticket }

// aimRelease aims the release store at the held ticket's successor.
func (t *ticketLock) aimRelease(p *machine.Proc, _ machine.Word) int {
	t.procs[p.ID()].release[1].Val = t.held + 1
	return 1
}

// toTicketLoad closes the proportional-backoff poll loop.
func toTicketLoad(*machine.Proc, machine.Word) int { return ticketLoad }

// ---------------------------------------------------------------------
// Anderson array-queue lock (1990)
// ---------------------------------------------------------------------

// andersonLock queues waiters on a ring of flags; each waiter spins on
// its own slot, so a release invalidates exactly one spinner. The array
// is statically sized at one slot per processor and lives in shared
// (interleaved) memory — on a NUMA machine most waiters therefore spin
// on a *remote* slot, the algorithm's documented weakness.
//
// Crash-restart costs the lock its safety, not only its liveness. A
// reborn processor takes a second ticket while its dead incarnation's
// ticket is still outstanding, so P+1 tickets share P slots: two
// waiters spin on one slot, and one release admits both. The
// mid-run-crash suite pins the resulting mutual-exclusion violation.
//
// Acquire is a per-processor script: the fetch&add, a branch aiming
// the slot spin and reset, the ContSpin, the reset store, and a host
// call recording the held slot. Release is a branch aiming the store
// at the next slot, and the store.
type andersonLock struct {
	slots machine.Addr // ring of P flags
	tail  machine.Addr // fetch&add ticket into the ring
	size  machine.Word
	held  machine.Word // ring index held; single holder, host-side
	procs []andersonProc
	scripts
}

// The acquire script's ops, by pc.
const (
	andersonTake  = iota // ContFetchAdd of the ring ticket
	andersonAim          // ContBranch: aim the spin and reset at our slot
	andersonSpin         // ContSpin until our slot reads 1
	andersonReset        // ContStore of 0 to our slot, for the next lap
	andersonHeld         // ContCall: record the held slot
	andersonOps
)

// andersonProc is one processor's scripts and the slot it waits on.
type andersonProc struct {
	idx     machine.Word
	acquire [andersonOps]machine.ContOp
	release [2]machine.ContOp
}

// NewAnderson builds an Anderson array-queue lock sized to the machine.
func NewAnderson(m *machine.Machine) Lock {
	size := m.Procs()
	a := &andersonLock{
		slots:   m.AllocShared(size),
		tail:    m.AllocShared(1),
		size:    machine.Word(size),
		procs:   make([]andersonProc, size),
		scripts: newScripts(size),
	}
	m.Poke(a.slots, 1) // slot 0 starts as "has lock"
	aim := machine.ContOp{Kind: machine.ContBranch, Branch: a.aim}
	held := machine.ContOp{Kind: machine.ContCall, Fn: a.recordHeld}
	aimRelease := machine.ContOp{Kind: machine.ContBranch, Branch: a.aimRelease}
	for i := range a.procs {
		w := &a.procs[i]
		w.acquire = [andersonOps]machine.ContOp{
			andersonTake:  {Kind: machine.ContFetchAdd, Addr: a.tail, Val: 1},
			andersonAim:   aim,
			andersonSpin:  machine.SpinReadOp(a.slots, machine.Pred{Op: machine.PredEq, Want: 1}),
			andersonReset: {Kind: machine.ContStore},
			andersonHeld:  held,
		}
		w.release = [2]machine.ContOp{aimRelease, {Kind: machine.ContStore, Val: 1}}
		a.acquire[i], a.release[i] = w.acquire[:], w.release[:]
	}
	return a
}

// aim points the spin and the reset at the slot the ticket maps to.
func (a *andersonLock) aim(p *machine.Proc, ticket machine.Word) int {
	w := &a.procs[p.ID()]
	w.idx = ticket % a.size
	slot := a.slots + machine.Addr(w.idx)
	w.acquire[andersonSpin].Addr = slot
	w.acquire[andersonReset].Addr = slot
	return andersonSpin
}

// recordHeld records the held ring index; only the holder writes it.
func (a *andersonLock) recordHeld(p *machine.Proc) { a.held = a.procs[p.ID()].idx }

// aimRelease aims the release store at the slot after the held one.
func (a *andersonLock) aimRelease(p *machine.Proc, _ machine.Word) int {
	next := (a.held + 1) % a.size
	a.procs[p.ID()].release[1].Addr = a.slots + machine.Addr(next)
	return 1
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
//
// Acquire is a per-processor script: a branch packing our flag's
// value into the swap, the fetch&store, a branch aiming the spin at
// the predecessor's flag, and the ContSpin. Like every read-spin wait
// (qsync's local spins included) the spin is window-ineligible by kind
// — watcher-parked on Bus, jitter-polled on remote NUMA words — and
// never appears in a probe rotation. Release is a branch flipping our
// flag's host-tracked value, and the store of it.
type gtLock struct {
	lock  machine.Addr   // packed (flag index << 1 | expected value)
	flags machine.Addr   // P per-processor flag words (shared placement)
	vals  []machine.Word // host-tracked current value of each flag
	procs []gtProc
	scripts
}

// The acquire script's ops, by pc.
const (
	gtPack = iota // ContBranch: pack our flag's value into the swap
	gtSwap        // ContFetchStore of the lock word
	gtAim         // ContBranch: aim the spin at the predecessor's flag
	gtSpin        // ContSpin until that flag flips
	gtOps
)

// gtProc is one processor's scripts.
type gtProc struct {
	acquire [gtOps]machine.ContOp
	release [2]machine.ContOp
}

// NewGraunkeThakkar builds a Graunke-Thakkar lock.
func NewGraunkeThakkar(m *machine.Machine) Lock {
	g := &gtLock{
		lock:    m.AllocShared(1),
		flags:   m.AllocShared(m.Procs()),
		vals:    make([]machine.Word, m.Procs()),
		procs:   make([]gtProc, m.Procs()),
		scripts: newScripts(m.Procs()),
	}
	// The lock starts pointing at processor 0's flag with the *opposite*
	// of its current value, so the first arrival proceeds immediately.
	m.Poke(g.lock, g.pack(0, 1))
	packSwap := machine.ContOp{Kind: machine.ContBranch, Branch: g.packSwap}
	aim := machine.ContOp{Kind: machine.ContBranch, Branch: g.aim}
	flip := machine.ContOp{Kind: machine.ContBranch, Branch: g.flip}
	for i := range g.procs {
		w := &g.procs[i]
		w.acquire = [gtOps]machine.ContOp{
			gtPack: packSwap,
			gtSwap: {Kind: machine.ContFetchStore, Addr: g.lock},
			gtAim:  aim,
			gtSpin: machine.SpinReadOp(g.flags, machine.Pred{Op: machine.PredNe, Mask: 1}),
		}
		w.release = [2]machine.ContOp{flip, {Kind: machine.ContStore, Addr: g.flags + machine.Addr(i)}}
		g.acquire[i], g.release[i] = w.acquire[:], w.release[:]
	}
	return g
}

func (g *gtLock) pack(idx int, val machine.Word) machine.Word {
	return machine.Word(idx)<<1 | (val & 1)
}

// packSwap sets the swap to enqueue our flag with its current value.
func (g *gtLock) packSwap(p *machine.Proc, _ machine.Word) int {
	me := p.ID()
	g.procs[me].acquire[gtSwap].Val = g.pack(me, g.vals[me])
	return gtSwap
}

// aim points the spin at the predecessor's flag, waiting for it to
// flip away from the value it had when the predecessor enqueued.
func (g *gtLock) aim(p *machine.Proc, old machine.Word) int {
	spin := &g.procs[p.ID()].acquire[gtSpin]
	spin.Addr = g.flags + machine.Addr(old>>1)
	spin.Val = old & 1
	return gtSpin
}

// flip flips our flag's host-tracked value and aims the release store
// at it. Only processor me ever reads or writes vals[me].
func (g *gtLock) flip(p *machine.Proc, _ machine.Word) int {
	me := p.ID()
	g.vals[me] ^= 1
	g.procs[me].release[1].Val = g.vals[me]
	return 1
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
//
// Both halves are per-processor scripts. Acquire: a store clearing our
// next pointer, the fetch&store of the cell, a branch (a free cell
// ends it, otherwise it aims the link), two stores (waiting status,
// then the link into the predecessor) and a local ContSpin on our
// status. Release: a load of our next pointer, a branch (a successor
// gets the hand-off), a compare&swap swinging a solitary cell back to
// free, a branch, a ContSpin while the next pointer is zero (a
// successor is mid-enqueue), the hand-off branch again, and the
// hand-off store.
type qsyncLock struct {
	cell  machine.Addr   // queue tail; Word(0) = free
	nodes []machine.Addr // per-processor record, in local memory
	procs []qsyncProc
	scripts
}

// The acquire script's ops, by pc.
const (
	qaClear  = iota // ContStore of 0 to our next pointer
	qaSwap          // ContFetchStore of our record into the cell
	qaLink          // ContBranch: free cell (end), or aim the link
	qaStatus        // ContStore of 1 to our status
	qaStore         // ContStore of our record into the predecessor's next
	qaSpin          // ContSpin until our status is 0
	qaOps
)

// The release script's ops, by pc.
const (
	qrLoad    = iota // ContLoad of our next pointer
	qrNext           // ContBranch: hand off to a known successor, or try to free
	qrCAS            // ContCAS of the cell from our record to free
	qrFreed          // ContBranch: freed (end), or wait for the link
	qrSpin           // ContSpin while our next pointer is zero
	qrLinked         // ContBranch: hand off to the linked successor
	qrHandoff        // ContStore of 0 to the successor's status
	qrOps
)

// qsyncProc is one processor's scripts.
type qsyncProc struct {
	acquire [qaOps]machine.ContOp
	release [qrOps]machine.ContOp
}

// NewQSync builds the mechanism's mutual-exclusion lock.
func NewQSync(m *machine.Machine) Lock {
	q := &qsyncLock{cell: m.AllocShared(1), nodes: make([]machine.Addr, m.Procs()),
		procs: make([]qsyncProc, m.Procs()), scripts: newScripts(m.Procs())}
	link := machine.ContOp{Kind: machine.ContBranch, Branch: q.link}
	handoff := machine.ContOp{Kind: machine.ContBranch, Branch: q.handoff}
	for i := range q.nodes {
		n := m.AllocLocal(i, qWords)
		q.nodes[i] = n
		w := &q.procs[i]
		w.acquire = [qaOps]machine.ContOp{
			qaClear:  {Kind: machine.ContStore, Addr: n + qNext},
			qaSwap:   {Kind: machine.ContFetchStore, Addr: q.cell, Val: machine.PtrWord(n)},
			qaLink:   link,
			qaStatus: {Kind: machine.ContStore, Addr: n + qStatus, Val: 1},
			qaStore:  {Kind: machine.ContStore, Val: machine.PtrWord(n)},
			qaSpin:   machine.SpinReadOp(n+qStatus, machine.Pred{Op: machine.PredEq}),
		}
		w.release = [qrOps]machine.ContOp{
			qrLoad:    {Kind: machine.ContLoad, Addr: n + qNext},
			qrNext:    handoff,
			qrCAS:     {Kind: machine.ContCAS, Addr: q.cell, Val: machine.PtrWord(n)},
			qrFreed:   {Kind: machine.ContBranch, Branch: freed},
			qrSpin:    machine.SpinReadOp(n+qNext, machine.Pred{Op: machine.PredNe}),
			qrLinked:  handoff,
			qrHandoff: {Kind: machine.ContStore},
		}
		q.acquire[i], q.release[i] = w.acquire[:], w.release[:]
	}
	return q
}

// link ends the acquire on a free cell (we hold the lock) and
// otherwise aims the link store at the predecessor's next pointer. We
// must appear "waiting" before the predecessor can see us, so the
// status store comes first.
func (q *qsyncLock) link(p *machine.Proc, pred machine.Word) int {
	if pred == 0 {
		return qaOps
	}
	q.procs[p.ID()].acquire[qaStore].Addr = machine.WordPtr(pred) + qNext
	return qaStatus
}

// handoff aims the hand-off store at successor next's status, or, with
// no known successor, tries to swing the cell back to free.
func (q *qsyncLock) handoff(p *machine.Proc, next machine.Word) int {
	if next == 0 {
		return qrCAS
	}
	q.procs[p.ID()].release[qrHandoff].Addr = machine.WordPtr(next) + qStatus
	return qrHandoff
}

// freed ends the release when the cell swung back to free; otherwise a
// successor is mid-enqueue, and we wait (locally) for its link.
func freed(_ *machine.Proc, ok machine.Word) int {
	if ok != 0 {
		return qrOps
	}
	return qrSpin
}
