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
//
// Acquire is a script every processor shares: a ContSpin bounded to one
// slice, a branch that ends on a win and otherwise counts the timeout,
// the penalty delay, and a jump back. AcquireWithin is one bounded
// ContSpin. Release is one store of zero.
type deadlineTASLock struct {
	latch   machine.Addr
	slice   sim.Time
	penalty sim.Time
	bo      machine.Backoff

	// timeouts counts expired slices. Host-side is safe: the simulation
	// runs one goroutine at a time (baton passing).
	timeouts uint64

	scripts
	within []machine.ContOp // per processor: AcquireWithin's bounded spin
}

// The acquire script's ops, by pc.
const (
	deadlineSpin    = iota // ContSpin of test&set probes for one slice
	deadlineJudge          // ContBranch: won (end), or count the timeout
	deadlinePenalty        // ContDelay of the penalty
	deadlineLoop           // ContBranch: spin again
	deadlineOps
)

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
	t := &deadlineTASLock{
		latch:   m.AllocShared(1),
		slice:   slice,
		penalty: penalty,
		// Deterministic bounded exponential backoff: no jitter draws, so
		// the probe schedule is a pure function of the deadline.
		bo:     machine.Backoff{Base: 16, Cap: 1024},
		within: make([]machine.ContOp, m.Procs()),
	}
	t.scripts = sharedScripts(m.Procs(), []machine.ContOp{
		deadlineSpin:    machine.SpinTASOp(t.latch, t.bo, slice),
		deadlineJudge:   {Kind: machine.ContBranch, Branch: t.judge},
		deadlinePenalty: {Kind: machine.ContDelay, Dur: penalty},
		deadlineLoop:    {Kind: machine.ContBranch, Branch: toTop},
	}, storeZero(t.latch))
	for i := range t.within {
		t.within[i] = machine.SpinTASOp(t.latch, t.bo, 1)
	}
	return t
}

// judge ends the acquire when the spin won the latch (a zero last
// probe) and otherwise counts the expired slice.
func (t *deadlineTASLock) judge(_ *machine.Proc, v machine.Word) int {
	if v == 0 {
		return deadlineOps
	}
	t.timeouts++
	return deadlinePenalty
}

func (t *deadlineTASLock) AcquireWithin(p *machine.Proc, budget sim.Time) bool {
	if budget <= 0 {
		budget = 1
	}
	ops := t.within[p.ID() : p.ID()+1]
	ops[0].Dur = budget
	return p.RunScript(ops) == 0
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
// Release is a script too: a load of the lease word, a branch that ends
// unless we still own it, and the compare&swap back to free. The Go
// forms, verbatim, are the closure twin in twins_test.go.
type leaseLock struct {
	word  machine.Addr
	lease sim.Time // lease term stamped on acquire
	poll  sim.Time // re-check period while held by a live lease

	takeovers uint64      // host-side: acquires that usurped an expired lease
	procs     []leaseProc // per processor: the scripts and their state
	scripts
}

// The acquire script's ops, by pc. lease-fence extends it with two ops
// that take a fencing token.
const (
	leaseLoad = iota // ContLoad of the lease word
	leaseTest        // ContBranch: free or expired (CAS it), or held (poll)
	leaseCAS         // ContCAS of the word from the observed value to ours
	leaseWon         // ContBranch: acquired, or reload
	leasePoll        // ContDelay of one poll period
	leaseLoop        // ContBranch: reload
	leaseOps         // the lease acquire's length; lease-fence's continues
)

// lease-fence's two further acquire ops, by pc.
const (
	fenceTake  = leaseOps + iota // ContFetchAdd of the epoch
	fenceToken                   // ContBranch: record the fencing token
	fenceOps
)

// The release script's ops, by pc.
const (
	leaseRelLoad = iota // ContLoad of the lease word
	leaseRelMine        // ContBranch: usurped (end), or aim the CAS
	leaseRelCAS         // ContCAS of the word from our lease to free
	leaseRelOps
)

// leaseProc is one processor's scripts and the acquire's state.
type leaseProc struct {
	takeover bool // the pending CAS usurps an expired lease
	acquire  [fenceOps]machine.ContOp
	release  [leaseRelOps]machine.ContOp
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
	l := &leaseLock{word: m.AllocShared(1), lease: lease, poll: poll,
		procs: make([]leaseProc, m.Procs()), scripts: newScripts(m.Procs())}
	test := machine.ContOp{Kind: machine.ContBranch, Branch: l.test}
	won := machine.ContOp{Kind: machine.ContBranch, Branch: l.won}
	mine := machine.ContOp{Kind: machine.ContBranch, Branch: l.mine}
	for i := range l.procs {
		a := &l.procs[i]
		a.acquire = [fenceOps]machine.ContOp{
			leaseLoad: {Kind: machine.ContLoad, Addr: l.word},
			leaseTest: test,
			leaseCAS:  {Kind: machine.ContCAS, Addr: l.word},
			leaseWon:  won,
			leasePoll: {Kind: machine.ContDelay, Dur: poll},
			leaseLoop: {Kind: machine.ContBranch, Branch: toTop},
		}
		a.release = [leaseRelOps]machine.ContOp{
			leaseRelLoad: {Kind: machine.ContLoad, Addr: l.word},
			leaseRelMine: mine,
			leaseRelCAS:  {Kind: machine.ContCAS, Addr: l.word},
		}
		l.acquire[i], l.release[i] = a.acquire[:leaseOps], a.release[:]
	}
	return l
}

// toTop is the branch that closes a poll loop: continue at pc 0.
func toTop(*machine.Proc, machine.Word) int { return 0 }

func (l *leaseLock) pack(p *machine.Proc, exp sim.Time) machine.Word {
	return machine.Word(p.ID()+1)<<leaseExpBits | machine.Word(exp)&leaseExpMask
}

// test judges the loaded lease word v.
func (l *leaseLock) test(p *machine.Proc, v machine.Word) int {
	a := &l.procs[p.ID()]
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
	a.acquire[leaseCAS].Val = v
	a.acquire[leaseCAS].New = l.pack(p, p.Now()+l.lease)
	return leaseCAS
}

// won ends the lease acquire on a successful CAS (at leaseOps, where
// lease-fence takes its token) and reloads on a lost one.
func (l *leaseLock) won(p *machine.Proc, ok machine.Word) int {
	if ok == 0 {
		return leaseLoad
	}
	if l.procs[p.ID()].takeover {
		l.takeovers++
	}
	return leaseOps
}

// mine aims the release CAS at the loaded lease word v while it is
// still ours. A usurped lease (ours expired and someone took over) is
// theirs to release. CAS, not store: the lease may expire and be taken
// over between the load and the write.
func (l *leaseLock) mine(p *machine.Proc, v machine.Word) int {
	if int(v>>leaseExpBits) != p.ID()+1 {
		return leaseRelOps
	}
	l.procs[p.ID()].release[leaseRelCAS].Val = v
	return leaseRelCAS
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
