package simsync

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file holds the self-healing primitives built on the machine's
// crash-recovery seam (fault restarts, the deterministic heartbeat
// failure detector exposed as Proc.Suspects, and per-processor
// incarnations): a fencing-token lease lock whose stale writers are
// detected rather than trusted, a queue lock that excises
// suspected-dead queue nodes so FIFO hand-off survives the crash that
// wedges qsync, and a reconfigurable barrier that drops detected-dead
// processors from the episode and lets recovered ones rejoin. All
// three are deterministic and fault-free-exact, so they register in
// the ordinary sweeps; the fault harness tightens their bounds.

// FencedLock is a Lock whose critical-section writes can be fenced: a
// GuardedStore by a holder whose tenure has been superseded (its lease
// expired and someone took over) is suppressed and counted instead of
// corrupting shared state. This is the classic fencing-token discipline:
// the lock hands every acquire a monotonically increasing token, and
// the write path refuses tokens older than the newest one issued.
type FencedLock interface {
	Lock
	GuardedStore(p *machine.Proc, a machine.Addr, v machine.Word) bool
}

// ---------------------------------------------------------------------
// fencing-token lease lock
// ---------------------------------------------------------------------

// fenceLock wraps the lease-lock protocol with an epoch word: every
// acquire — first grant or takeover — increments the epoch with a
// fetch&add, and the value it returns is the holder's fencing token.
// A holder that lost its lease mid-section still *thinks* it holds the
// lock, but its token is stale the instant the usurper's fetch&add
// lands, so GuardedStore detects and suppresses the zombie write. The
// epoch therefore turns the lease lock's one unavoidable weakness
// (a usurped holder briefly acting like an owner) into a counted,
// harmless event.
type fenceLock struct {
	lease  *leaseLock
	epoch  machine.Addr
	tokens []machine.Word // host-side: fencing token from each processor's last acquire

	staleWrites uint64 // GuardedStores suppressed on a stale token
}

// NewLeaseFence builds a fencing lease lock with an effectively
// infinite term: fault-free (every registry sweep) it is a plain
// polling CAS lock whose epoch counts acquires, and no write is ever
// fenced. Fault experiments shorten the term with NewLeaseFenceTerm.
func NewLeaseFence(m *machine.Machine) Lock {
	return NewLeaseFenceTerm(m, 1<<40, 64)
}

// NewLeaseFenceTerm builds a fencing lease lock with an explicit lease
// term and poll period.
func NewLeaseFenceTerm(m *machine.Machine, lease, poll sim.Time) Lock {
	return &fenceLock{
		lease:  newLeaseLock(m, lease, poll),
		epoch:  m.AllocShared(1),
		tokens: make([]machine.Word, m.Procs()),
	}
}

// Acquire runs the lease lock's acquire script, then takes a token.
func (l *fenceLock) Acquire(p *machine.Proc) {
	l.lease.Acquire(p)
	l.takeToken(p)
}

// takeToken records p's fencing token for the acquire it just won.
func (l *fenceLock) takeToken(p *machine.Proc) {
	// The token is the epoch value after our increment. Between the
	// lease CAS and this fetch&add no other processor can acquire (the
	// lease word is ours and unexpired for a full term), so tokens are
	// issued in acquisition order.
	l.tokens[p.ID()] = p.FetchAdd(l.epoch, 1) + 1
}

// Renew extends the holder's lease by a full term from now, reporting
// whether the renewal won. A renewal loses exactly when the lease
// already expired and a usurper's CAS landed first — the (when, seq)
// tie at the expiry instant resolves deterministically in the engine.
func (l *fenceLock) Renew(p *machine.Proc) bool {
	v := p.Load(l.lease.word)
	if int(v>>leaseExpBits) != p.ID()+1 {
		return false // already usurped; nothing to renew
	}
	return p.CompareAndSwap(l.lease.word, v, l.lease.pack(p, p.Now()+l.lease.lease))
}

func (l *fenceLock) Release(p *machine.Proc) {
	l.lease.Release(p)
}

// GuardedStore writes v to a only when this processor's fencing token
// is still the newest issued; a stale token means the lease was taken
// over and the write is suppressed (and counted) instead of stomping
// the usurper's critical section.
func (l *fenceLock) GuardedStore(p *machine.Proc, a machine.Addr, v machine.Word) bool {
	if p.Load(l.epoch) != l.tokens[p.ID()] {
		l.staleWrites++
		return false
	}
	p.Store(a, v)
	return true
}

// Takeovers reports how many acquires usurped an expired lease.
func (l *fenceLock) Takeovers() uint64 { return l.lease.takeovers }

// StaleWrites reports how many GuardedStores were fenced off.
func (l *fenceLock) StaleWrites() uint64 { return l.staleWrites }

// ---------------------------------------------------------------------
// self-healing ticket queue lock
// ---------------------------------------------------------------------

// Slot layout for healQueueLock: ticket in the high bits, owner
// (processor index + 1) in the low healOwnerBits. One slot per
// processor suffices: tickets t and t-P can never be outstanding
// together (each processor holds at most one ticket at a time), so a
// slot is only ever overwritten after its previous ticket was served
// or excised.
const (
	healOwnerBits = 12
	healOwnerMask = machine.Word(1)<<healOwnerBits - 1
)

// healQueueLock is a ticket lock whose waiters heal the queue: each
// polling waiter identifies the processor owning the head ticket (via
// its announcement slot) and, when the failure detector suspects that
// owner dead, excises the ticket with a CAS on the serving counter so
// hand-off flows past the corpse. A waiter whose own ticket was
// excised from under it (a false positive, or its pre-crash ticket
// observed after rebirth) simply re-enqueues with a fresh ticket. A
// grace timeout backstops the detector: a head ticket that stays stuck
// past the grace period is excised unconditionally, which unwedges
// tickets whose dead owner recovered (clearing its suspicion) without
// ever draining its old ticket.
//
// Fault-free the lock is a plain FIFO ticket queue — nothing is ever
// suspected and the default grace is unreachable — so it registers in
// the ordinary sweeps. This is the lock FT3 measures against qsync,
// whose dead-node hand-off chain wedges forever under the same crash.
type healQueueLock struct {
	next    machine.Addr // ticket dispenser
	serving machine.Addr // lowest unserved ticket
	slots   machine.Addr // procs words: per-slot ticket announcement
	procs   int
	poll    sim.Time
	grace   sim.Time

	tickets   []machine.Word // host-side: each processor's current ticket
	excisions uint64         // dead-head tickets removed from the queue
	requeues  uint64         // acquires that had to take a fresh ticket
	wait      []healWait     // per processor: the waitTurn script
}

// NewHealQueue builds a self-healing ticket lock with a grace timeout
// far above any live holder's head residence, so fault-free runs are
// exact FIFO. Excision is normally detector-driven; the grace backstop
// covers the one case the detector cannot: a ticket abandoned by a
// crash whose owner was already reborn (and so no longer suspected) by
// the time the ticket reached the head. Fault experiments tune the
// knobs with NewHealQueueGrace.
func NewHealQueue(m *machine.Machine) Lock {
	return NewHealQueueGrace(m, 1<<15, 64)
}

// NewHealQueueGrace builds a self-healing ticket lock with an explicit
// head-stuck grace timeout and poll period. The grace period must
// comfortably exceed any live holder's critical-section residence
// (including stalls), or the backstop will excise live holders.
func NewHealQueueGrace(m *machine.Machine, grace, poll sim.Time) Lock {
	if grace <= 0 {
		grace = 1
	}
	if poll <= 0 {
		poll = 1
	}
	l := &healQueueLock{
		next:    m.AllocShared(1),
		serving: m.AllocShared(1),
		slots:   m.AllocShared(m.Procs()),
		procs:   m.Procs(),
		poll:    poll,
		grace:   grace,
		tickets: make([]machine.Word, m.Procs()),
		wait:    make([]healWait, m.Procs()),
	}
	for i := range l.wait {
		w := &l.wait[i]
		w.l = l
		w.ops = [healOps]machine.ContOp{
			healLoadServing: {Kind: machine.ContLoad, Addr: l.serving},
			healCheck:       {Kind: machine.ContBranch, Branch: w.check},
			healLoadSlot:    {Kind: machine.ContLoad},
			healJudge:       {Kind: machine.ContBranch, Branch: w.judge},
			healExcise:      {Kind: machine.ContCAS, Addr: l.serving},
			healExcised:     {Kind: machine.ContBranch, Branch: w.excised},
			healPoll:        {Kind: machine.ContDelay, Dur: poll},
			healLoop:        {Kind: machine.ContBranch, Branch: toTop},
		}
	}
	return l
}

func (l *healQueueLock) Acquire(p *machine.Proc) {
	for {
		t := p.FetchAdd(l.next, 1)
		// Announce the ticket so waiters behind us can identify (and,
		// if we die, excise) us.
		p.Store(l.slots+machine.Addr(int(t)%l.procs), t<<healOwnerBits|machine.Word(p.ID()+1))
		if l.waitTurn(p, t) {
			l.tickets[p.ID()] = t
			return
		}
		l.requeues++ // our ticket was excised from under us: take another
	}
}

// The waitTurn script's ops, by pc.
const (
	healLoadServing = iota // ContLoad of the serving counter
	healCheck              // ContBranch: served, excised, or inspect the head
	healLoadSlot           // ContLoad of the head ticket's slot
	healJudge              // ContBranch: excise the head, or poll
	healExcise             // ContCAS of serving from the head ticket past it
	healExcised            // ContBranch: count an excision; reload
	healPoll               // ContDelay of one poll period
	healLoop               // ContBranch: reload
	healOps
)

// healWait is one processor's waitTurn script and the loop state its
// branches keep. waitTurn resets the state on entry, so a processor
// reborn mid-wait starts its next wait clean.
type healWait struct {
	l         *healQueueLock
	t         machine.Word // the ticket being waited on
	s         machine.Word // the serving value the last load saw
	headSeen  machine.Word // the head ticket being timed
	headSince sim.Time     // when headSeen was first seen
	served    bool         // the outcome: t was served (true) or excised (false)
	ops       [healOps]machine.ContOp
}

// waitTurn polls until ticket t is served (true) or excised (false),
// healing the queue head along the way. It is a continuation script
// (machine.RunScript), one per processor, encoding this Go poll loop op
// for op, with the branches at the Go conditions' program points:
//
//	for {
//		s := p.Load(serving)
//		if s == t { return true }
//		if s > t { return false }
//		// note when the head ticket s was first seen
//		slot := p.Load(slots + s%procs)
//		if the head's announced owner is another processor p.Suspects,
//		   or the head has been stuck for a grace period {
//			if p.CompareAndSwap(serving, s, s+1) { excisions++ }
//			continue
//		}
//		p.Delay(poll)
//	}
//
// The loop itself, verbatim, is the closure twin in twins_test.go.
func (l *healQueueLock) waitTurn(p *machine.Proc, t machine.Word) bool {
	w := &l.wait[p.ID()]
	// Every head check sees a serving value below t, so starting
	// headSeen at t makes the first check start the head's clock.
	w.t, w.headSeen = t, t
	p.RunScript(w.ops[:])
	return w.served
}

// check judges the loaded serving value s.
func (w *healWait) check(p *machine.Proc, s machine.Word) int {
	if s >= w.t {
		w.served = s == w.t
		return healOps
	}
	if s != w.headSeen {
		w.headSeen, w.headSince = s, p.Now()
	}
	w.s = s
	w.ops[healLoadSlot].Addr = w.l.slots + machine.Addr(int(s)%w.l.procs)
	return healLoadSlot
}

// judge decides from the head's loaded slot whether to excise it.
func (w *healWait) judge(p *machine.Proc, slot machine.Word) int {
	s := w.s
	// An owner field of 0 is a head ticket taken but not yet announced
	// (its owner was cut off between the fetch&add and the store): it
	// names no processor to suspect, so only the grace backstop below
	// can move it.
	if slot>>healOwnerBits == s && slot&healOwnerMask != 0 {
		if owner := int(slot&healOwnerMask) - 1; owner != p.ID() && p.Suspects(owner) {
			// The head ticket's owner is suspected dead: excise it. The
			// CAS makes excision idempotent across waiters, and a
			// serving counter can only move forward, so a healthy
			// hand-off can never be rewound.
			return w.excise(s)
		}
	}
	if p.Now()-w.headSince >= w.l.grace {
		// Backstop: the head has not moved for a full grace period.
		// Catches dead tickets whose owner already recovered (its
		// suspicion cleared at rebirth, but its old ticket remains).
		return w.excise(s)
	}
	return healPoll
}

// excise aims the CAS at moving serving from head ticket s past it.
func (w *healWait) excise(s machine.Word) int {
	w.ops[healExcise].Val, w.ops[healExcise].New = s, s+1
	return healExcise
}

// excised counts a won excision; either way the wait reloads serving.
func (w *healWait) excised(_ *machine.Proc, ok machine.Word) int {
	if ok != 0 {
		w.l.excisions++
	}
	return healLoadServing
}

func (l *healQueueLock) Release(p *machine.Proc) {
	// CAS, not store: if our ticket was grace-excised while we were in
	// the critical section, serving has moved past us and the hand-off
	// already happened — a blind increment would skip a live waiter.
	t := l.tickets[p.ID()]
	p.CompareAndSwap(l.serving, t, t+1)
}

// Excisions reports how many dead head tickets waiters removed.
func (l *healQueueLock) Excisions() uint64 { return l.excisions }

// Requeues reports how many acquires re-enqueued after their ticket
// was excised.
func (l *healQueueLock) Requeues() uint64 { return l.requeues }

// ---------------------------------------------------------------------
// reconfigurable barrier
// ---------------------------------------------------------------------

// reconfBarrier is an all-arrive barrier that reconfigures its
// membership under crashes: every completion scan treats a processor
// as arrived, evicted, or pending — and a pending processor the
// failure detector suspects dead is evicted on the spot (a shared mark,
// so the decision is made once and seen by all). Episodes complete
// over the surviving membership. A recovered processor finds its
// eviction mark, clears it, and catches up: it replays its missed
// episodes, each completing instantly because every survivor has
// already arrived at (or past) it, until it reaches the group's
// frontier and participates normally again. The survivors' schedule
// never depends on whether the corpse returns — while the mark stands
// they treat the processor as absent, and a catch-up arrival at an old
// episode only re-satisfies scans that were already satisfied.
//
// Fault-free nothing is ever suspected, so the barrier is an exact
// all-arrive barrier (release is raised only when every processor has
// arrived) and registers in the ordinary correctness sweeps, unlike
// the straggler barrier whose budget expiry force-opens episodes.
type reconfBarrier struct {
	arrive  machine.Addr // procs words: latest episode each processor arrived at
	dead    machine.Addr // procs words: eviction marks
	release machine.Addr // highest completed episode
	procs   int
	budget  sim.Time // poll budget between completion re-scans
	poll    sim.Time

	epoch     []machine.Word // host-side per-processor episode
	evictions uint64         // suspected-dead processors removed from an episode
	rejoins   uint64         // recovered processors that re-entered
}

// NewReconfBarrier builds a reconfigurable barrier with the default
// re-scan budget.
func NewReconfBarrier(m *machine.Machine) Barrier {
	return NewReconfBudget(m, 4096)
}

// NewReconfBudget builds a reconfigurable barrier whose waiters re-run
// the completion scan every budget cycles while polling for release.
func NewReconfBudget(m *machine.Machine, budget sim.Time) Barrier {
	if budget <= 0 {
		budget = 1
	}
	poll := budget / 16
	if poll <= 0 {
		poll = 1
	}
	return &reconfBarrier{
		arrive:  m.AllocShared(m.Procs()),
		dead:    m.AllocShared(m.Procs()),
		release: m.AllocShared(1),
		procs:   m.Procs(),
		budget:  budget,
		poll:    poll,
		epoch:   make([]machine.Word, m.Procs()),
	}
}

// scan runs one completion pass for episode e: every processor must be
// arrived, evicted, or — when suspected dead — evicted now. Reports
// whether the episode is complete over the surviving membership.
func (b *reconfBarrier) scan(p *machine.Proc, e machine.Word) bool {
	done := true
	for q := 0; q < b.procs; q++ {
		if machine.Word(p.Load(b.arrive+machine.Addr(q))) >= e {
			continue
		}
		if p.Load(b.dead+machine.Addr(q)) != 0 {
			continue
		}
		if p.Suspects(q) {
			p.Store(b.dead+machine.Addr(q), 1)
			b.evictions++
			continue
		}
		done = false
	}
	return done
}

func (b *reconfBarrier) Wait(p *machine.Proc) {
	me := p.ID()
	if p.Load(b.dead+machine.Addr(me)) != 0 {
		// We were evicted while dead (or falsely suspected): clear the
		// mark and catch up from our own episode counter. Missed
		// episodes complete instantly — everyone else already arrived
		// at them or is evicted — so no survivor ever waits on a corpse
		// that might not return, yet a returning processor still gets
		// its full episode count.
		p.Store(b.dead+machine.Addr(me), 0)
		b.rejoins++
	}
	e := b.epoch[me] + 1
	b.epoch[me] = e
	p.Store(b.arrive+machine.Addr(me), e)
	if b.scan(p, e) {
		raiseTo(p, b.release, e)
		return
	}
	deadline := p.Now() + b.budget
	for p.Load(b.release) < e {
		if p.Now() >= deadline {
			// Re-scan: late crashes become suspicions only with time, so
			// waiting on release alone could park the survivors forever.
			if b.scan(p, e) {
				raiseTo(p, b.release, e)
				return
			}
			deadline = p.Now() + b.budget
		}
		p.Delay(b.poll)
	}
}

// Leave removes this processor from the group voluntarily: scans treat
// it like an evicted processor from now on. A processor done with its
// episodes must leave, or a recovered straggler catching up past the
// group's frontier (its crashed incarnation consumed a barrier episode
// the workload never counted) would wait forever on peers that already
// finished. A later Wait — a rebirth with quota left — re-admits it
// through the ordinary rejoin path.
func (b *reconfBarrier) Leave(p *machine.Proc) {
	p.Store(b.dead+machine.Addr(p.ID()), 1)
}

// Evictions reports how many suspected-dead processors were removed
// from an episode.
func (b *reconfBarrier) Evictions() uint64 { return b.evictions }

// Rejoins reports how many recovered processors re-entered the group.
func (b *reconfBarrier) Rejoins() uint64 { return b.rejoins }
