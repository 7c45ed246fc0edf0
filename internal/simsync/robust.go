package simsync

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file holds the fault-tolerant primitives: locks and a barrier
// that bound how long any processor waits on any other, so a crashed or
// stalled peer (internal/fault) degrades throughput instead of wedging
// the computation. All of them are deterministic — their schedules are
// pure functions of the machine state — so they run in the registry
// sweeps and the golden/determinism suites like every other algorithm.

// BoundedLock is a Lock whose acquire can give up. AcquireWithin
// attempts the acquire for at most budget cycles of this processor's
// clock and reports whether the lock was taken; on false the processor
// holds nothing and may retry, back off, or abandon the operation.
// RunLockIn uses this when LockOpts.Budget is set, to keep survivors
// making attempts after a crash wedges the lock word.
type BoundedLock interface {
	Lock
	AcquireWithin(p *machine.Proc, budget sim.Time) bool
}

// ---------------------------------------------------------------------
// test&set with a deadline
// ---------------------------------------------------------------------

// deadlineTASLock is the test&set lock hardened with bounded waits: each
// acquire attempt spins for at most one slice, then backs off for a
// penalty and retries. Under no faults it behaves like tas with backoff;
// under faults every slice boundary is a chance to observe that the
// world moved on. Deadline spins are window-ineligible by construction
// (machine/spin.go), so adding this lock never perturbs the windowed
// fast-forward of the plain tas storms running beside it.
type deadlineTASLock struct {
	latch   machine.Addr
	slice   sim.Time
	penalty sim.Time
	bo      machine.Backoff

	// timeouts counts expired slices. Host-side is safe: the simulation
	// runs one goroutine at a time (baton passing).
	timeouts uint64
}

// NewTASDeadline builds a deadline test&set lock with default slice and
// retry penalty.
func NewTASDeadline(m *machine.Machine) Lock {
	return NewTASDeadlineSlice(m, 4096, 256)
}

// NewTASDeadlineSlice builds a deadline test&set lock with an explicit
// spin slice and inter-attempt penalty.
func NewTASDeadlineSlice(m *machine.Machine, slice, penalty sim.Time) Lock {
	if slice <= 0 {
		slice = 1
	}
	if penalty < 0 {
		penalty = 0
	}
	return &deadlineTASLock{
		latch:   m.AllocShared(1),
		slice:   slice,
		penalty: penalty,
		// Deterministic bounded exponential backoff: no jitter draws, so
		// the probe schedule is a pure function of the deadline.
		bo: machine.Backoff{Base: 16, Cap: 1024},
	}
}

func (t *deadlineTASLock) AcquireWithin(p *machine.Proc, budget sim.Time) bool {
	if budget <= 0 {
		budget = 1
	}
	return p.SpinTASFor(t.latch, t.bo, p.Now()+budget)
}

func (t *deadlineTASLock) Acquire(p *machine.Proc) {
	for !t.AcquireWithin(p, t.slice) {
		t.timeouts++
		p.Delay(t.penalty)
	}
}

func (t *deadlineTASLock) Release(p *machine.Proc) {
	p.Store(t.latch, 0)
}

// Timeouts reports how many spin slices expired without an acquire.
func (t *deadlineTASLock) Timeouts() uint64 { return t.timeouts }

// ---------------------------------------------------------------------
// lease lock
// ---------------------------------------------------------------------

// Lease word layout: owner (processor index + 1) in the high bits,
// expiry time in the low 48. Zero means free. Packing both into one
// word keeps acquire/takeover a single CAS, the only way takeover can
// be race-free on a machine whose widest atomic is one word.
const (
	leaseExpBits = 48
	leaseExpMask = machine.Word(1)<<leaseExpBits - 1
)

// leaseLock grants the lock as a lease: the holder owns it until an
// expiry time stamped into the lock word itself. A healthy holder
// releases long before expiry; a crashed or stalled holder's lease runs
// out, and the next contender takes the lock over with a CAS on the
// observed (owner, expiry) pair. Release CASes rather than stores so a
// holder that was usurped after expiring does not stomp the usurper.
//
// Acquire is a continuation script (machine.RunScript), one per
// processor, encoding this Go poll loop op for op:
//
//	for {
//		v := p.Load(word)
//		if v == 0 || expiry(v) <= p.Now() {
//			if p.CompareAndSwap(word, v, pack(p, p.Now()+lease)) {
//				return // a takeover when v != 0
//			}
//			continue
//		}
//		p.Delay(poll)
//	}
//
// The loop itself, verbatim, is the closure twin in twins_test.go.
type leaseLock struct {
	word  machine.Addr
	lease sim.Time // lease term stamped on acquire
	poll  sim.Time // re-check period while held by a live lease

	takeovers uint64         // host-side: acquires that usurped an expired lease
	acquire   []leaseAcquire // per processor: the acquire script
}

// The acquire script's ops, by pc.
const (
	leaseLoad = iota // ContLoad of the lease word
	leaseTest        // ContBranch: free or expired (CAS it), or held (poll)
	leaseCAS         // ContCAS of the word from the observed value to ours
	leaseWon         // ContBranch: acquired, or reload
	leasePoll        // ContDelay of one poll period
	leaseLoop        // ContBranch: reload
	leaseOps
)

// leaseAcquire is one processor's acquire script and its state.
type leaseAcquire struct {
	l        *leaseLock
	takeover bool // the pending CAS usurps an expired lease
	ops      [leaseOps]machine.ContOp
}

// NewLease builds a lease lock with an effectively infinite term: in
// fault-free runs (every registry sweep) no lease ever expires, so the
// lock is a plain polling CAS lock and mutual exclusion is
// unconditional. Fault experiments shorten the term with NewLeaseTerm.
func NewLease(m *machine.Machine) Lock {
	return NewLeaseTerm(m, 1<<40, 64)
}

// NewLeaseTerm builds a lease lock with an explicit lease term and poll
// period.
func NewLeaseTerm(m *machine.Machine, lease, poll sim.Time) Lock {
	return newLeaseLock(m, lease, poll)
}

// newLeaseLock builds the lease lock with its per-processor acquire
// scripts; lease-fence wraps the concrete type.
func newLeaseLock(m *machine.Machine, lease, poll sim.Time) *leaseLock {
	if lease <= 0 {
		lease = 1
	}
	if poll <= 0 {
		poll = 1
	}
	l := &leaseLock{word: m.AllocShared(1), lease: lease, poll: poll}
	l.acquire = make([]leaseAcquire, m.Procs())
	for i := range l.acquire {
		a := &l.acquire[i]
		a.l = l
		a.ops = [leaseOps]machine.ContOp{
			leaseLoad: {Kind: machine.ContLoad, Addr: l.word},
			leaseTest: {Kind: machine.ContBranch, Branch: a.test},
			leaseCAS:  {Kind: machine.ContCAS, Addr: l.word},
			leaseWon:  {Kind: machine.ContBranch, Branch: a.won},
			leasePoll: {Kind: machine.ContDelay, Dur: poll},
			leaseLoop: {Kind: machine.ContBranch, Branch: toTop},
		}
	}
	return l
}

// toTop is the branch that closes a poll loop: continue at pc 0.
func toTop(*machine.Proc, machine.Word) int { return 0 }

func (l *leaseLock) pack(p *machine.Proc, exp sim.Time) machine.Word {
	return machine.Word(p.ID()+1)<<leaseExpBits | machine.Word(exp)&leaseExpMask
}

func (l *leaseLock) Acquire(p *machine.Proc) {
	p.RunScript(l.acquire[p.ID()].ops[:])
}

// test judges the loaded lease word v.
func (a *leaseAcquire) test(p *machine.Proc, v machine.Word) int {
	switch {
	case v == 0:
		a.takeover = false
	case sim.Time(v&leaseExpMask) <= p.Now():
		// The lease ran out — the holder crashed, or stalled past its
		// term. CAS on the exact observed word: of all the contenders
		// that saw this expired lease, exactly one wins.
		a.takeover = true
	default:
		return leasePoll
	}
	a.ops[leaseCAS].Val = v
	a.ops[leaseCAS].New = a.l.pack(p, p.Now()+a.l.lease)
	return leaseCAS
}

// won ends the script on a successful CAS and reloads on a lost one.
func (a *leaseAcquire) won(_ *machine.Proc, ok machine.Word) int {
	if ok == 0 {
		return leaseLoad
	}
	if a.takeover {
		a.l.takeovers++
	}
	return leaseOps
}

func (l *leaseLock) Release(p *machine.Proc) {
	v := p.Load(l.word)
	if int(v>>leaseExpBits) != p.ID()+1 {
		return // usurped after our lease expired; nothing left to release
	}
	// CAS, not store: the lease may expire and be taken over between the
	// load above and this write. Losing the CAS means the usurper owns
	// the word now, and it is theirs to release.
	p.CompareAndSwap(l.word, v, 0)
}

// Takeovers reports how many acquires usurped an expired lease.
func (l *leaseLock) Takeovers() uint64 { return l.takeovers }

// ---------------------------------------------------------------------
// straggler-tolerant barrier
// ---------------------------------------------------------------------

// stragglerBarrier is a counter barrier with a per-episode wait budget:
// a waiter that polls past its budget forces the episode released and
// proceeds, so one crashed or badly stalled processor cannot wedge the
// rest forever. Arrivals accumulate in one monotone counter (never
// reset), which keeps the episode accounting correct even when timeouts
// let processors run episodes apart.
//
// Deliberately NOT in BarrierSet: a forced release is exactly the
// "released before all arrived" condition a fault-free RunBarrierIn counts as a
// violation, so the registered correctness sweeps would (rightly) flag
// it. It is driven by the fault harness instead, where early release
// under a crash is the feature being measured.
type stragglerBarrier struct {
	arrivals machine.Addr // cumulative arrival count across all episodes
	release  machine.Addr // highest released episode; raised monotonically
	procs    machine.Word
	budget   sim.Time
	poll     sim.Time

	epoch    []machine.Word // host-side per-processor episode
	timeouts uint64         // host-side: waits that gave up on the budget
}

// NewStragglerBarrier builds a straggler-tolerant barrier whose waiters
// poll for at most budget cycles before forcing the episode open.
func NewStragglerBarrier(m *machine.Machine, budget sim.Time) Barrier {
	if budget <= 0 {
		budget = 1
	}
	poll := budget / 16
	if poll <= 0 {
		poll = 1
	}
	return &stragglerBarrier{
		arrivals: m.AllocShared(1),
		release:  m.AllocShared(1),
		procs:    machine.Word(m.Procs()),
		budget:   budget,
		poll:     poll,
		epoch:    make([]machine.Word, m.Procs()),
	}
}

// raiseTo lifts the release word to at least e: the release step of
// the straggler and reconf barriers. CAS-max rather than a plain store:
// with timeouts or evictions in play a slow processor can complete an
// old episode after a fast one forced a newer episode open, and a blind
// store of the old episode number would momentarily un-release it.
func raiseTo(p *machine.Proc, release machine.Addr, e machine.Word) {
	for {
		v := p.Load(release)
		if v >= e {
			return
		}
		if p.CompareAndSwap(release, v, e) {
			return
		}
	}
}

func (b *stragglerBarrier) Wait(p *machine.Proc) {
	e := b.epoch[p.ID()] + 1
	b.epoch[p.ID()] = e
	pos := p.FetchAdd(b.arrivals, 1)
	if pos == e*b.procs-1 {
		// Cumulative position e*P-1 means e*P arrivals total: every
		// processor has arrived e times, episode e is complete.
		raiseTo(p, b.release, e)
		return
	}
	deadline := p.Now() + b.budget
	for p.Load(b.release) < e {
		if p.Now() >= deadline {
			b.timeouts++
			raiseTo(p, b.release, e) // give up on the stragglers; open the episode
			return
		}
		p.Delay(b.poll)
	}
}

// Timeouts reports how many waits exhausted their budget and forced the
// episode open.
func (b *stragglerBarrier) Timeouts() uint64 { return b.timeouts }
