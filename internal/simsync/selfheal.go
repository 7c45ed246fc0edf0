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
	StaleWrites() uint64 // GuardedStores suppressed so far
}

// fencedScript is a scripted FencedLock: guardedStoreOps returns p's
// guarded write of v to a.
type fencedScript interface {
	guardedStoreOps(p *machine.Proc, a machine.Addr, v machine.Word) []machine.ContOp
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

	staleWrites uint64                     // GuardedStores suppressed on a stale token
	guard       [][guardOps]machine.ContOp // per processor: GuardedStore's script
	scripts
}

// The guarded write's ops are a ContLoad of the epoch, a ContBranch that
// counts a stale token and ends, and the ContStore.
const guardStore, guardOps = 2, 3

// NewLeaseFence builds a fencing lease lock with an effectively
// infinite term: fault-free (every registry sweep) it is a plain
// polling CAS lock whose epoch counts acquires, and no write is ever
// fenced. Fault experiments shorten the term with NewLeaseFenceTerm.
func NewLeaseFence(m *machine.Machine) Lock {
	return NewLeaseFenceTerm(m, 1<<40, 64)
}

// NewLeaseFenceTerm builds a fencing lease lock with an explicit lease
// term and poll period. Its acquire script is the lease lock's, run on
// into two more ops: the epoch fetch&add and a branch recording the
// token. Its release script is the lease lock's.
func NewLeaseFenceTerm(m *machine.Machine, lease, poll sim.Time) Lock {
	l := &fenceLock{
		lease:  newLeaseLock(m, lease, poll),
		epoch:  m.AllocShared(1),
		tokens: make([]machine.Word, m.Procs()),
		guard:  make([][guardOps]machine.ContOp, m.Procs()),
	}
	l.scripts = newScripts(m.Procs())
	take := machine.ContOp{Kind: machine.ContFetchAdd, Addr: l.epoch, Val: 1}
	token := machine.ContOp{Kind: machine.ContBranch, Branch: l.token}
	for i := range l.lease.procs {
		a := &l.lease.procs[i]
		a.acquire[fenceTake], a.acquire[fenceToken] = take, token
		l.acquire[i], l.release[i] = a.acquire[:], a.release[:]
		l.guard[i] = [guardOps]machine.ContOp{{Kind: machine.ContLoad, Addr: l.epoch},
			{Kind: machine.ContBranch, Branch: l.judge}, {Kind: machine.ContStore}}
	}
	return l
}

// token records p's fencing token for the acquire it just won: the
// epoch value after our increment. Between the lease CAS and the
// fetch&add no other processor can acquire (the lease word is ours and
// unexpired for a full term), so tokens are issued in acquisition
// order.
func (l *fenceLock) token(p *machine.Proc, old machine.Word) int {
	l.tokens[p.ID()] = old + 1
	return fenceOps
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

// GuardedStore writes v to a only when this processor's fencing token
// is still the newest issued; a stale token means the lease was taken
// over and the write is suppressed (and counted) instead of stomping
// the usurper's critical section.
func (l *fenceLock) GuardedStore(p *machine.Proc, a machine.Addr, v machine.Word) bool {
	stale := l.staleWrites
	p.RunScript(l.guardedStoreOps(p, a, v))
	return l.staleWrites == stale
}

func (l *fenceLock) guardedStoreOps(p *machine.Proc, a machine.Addr, v machine.Word) []machine.ContOp {
	ops := &l.guard[p.ID()]
	ops[guardStore].Addr, ops[guardStore].Val = a, v
	return ops[:]
}

// judge suppresses and counts a write under a stale token.
func (l *fenceLock) judge(p *machine.Proc, epoch machine.Word) int {
	if epoch != l.tokens[p.ID()] {
		l.staleWrites++
		return guardOps
	}
	return guardStore
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
//
// Acquire is a continuation script (machine.RunScript), one per
// processor, encoding this Go loop op for op, with the branches at the
// Go conditions' program points:
//
//	for {
//		t := p.FetchAdd(next, 1)
//		p.Store(slots + t%procs, t<<healOwnerBits | owner)
//		for { // wait for our turn
//			s := p.Load(serving)
//			if s == t { tickets[me] = t; return }
//			if s > t { break } // excised: requeue
//			// note when the head ticket s was first seen
//			slot := p.Load(slots + s%procs)
//			if the head's announced owner is another processor p.Suspects,
//			   or the head has been stuck for a grace period {
//				if p.CompareAndSwap(serving, s, s+1) { excisions++ }
//				continue
//			}
//			p.Delay(poll)
//		}
//		requeues++
//	}
//
// Release is a branch aiming the compare&swap at our ticket, and the
// compare&swap. The Go forms, verbatim, are the closure twin in
// twins_test.go.
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
	wait      []healProc     // per processor: the scripts and their state
	scripts
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
		wait:    make([]healProc, m.Procs()),
		scripts: newScripts(m.Procs()),
	}
	acquire := [healOps]machine.ContOp{
		healTake:        {Kind: machine.ContFetchAdd, Addr: l.next, Val: 1},
		healAim:         {Kind: machine.ContBranch, Branch: l.aim},
		healAnnounce:    {Kind: machine.ContStore},
		healLoadServing: {Kind: machine.ContLoad, Addr: l.serving},
		healCheck:       {Kind: machine.ContBranch, Branch: l.check},
		healLoadSlot:    {Kind: machine.ContLoad},
		healJudge:       {Kind: machine.ContBranch, Branch: l.judge},
		healExcise:      {Kind: machine.ContCAS, Addr: l.serving},
		healExcised:     {Kind: machine.ContBranch, Branch: l.excised},
		healPoll:        {Kind: machine.ContDelay, Dur: poll},
		healLoop:        {Kind: machine.ContBranch, Branch: toHealLoad},
		healGranted:     {Kind: machine.ContCall, Fn: l.granted},
	}
	release := [2]machine.ContOp{
		{Kind: machine.ContBranch, Branch: l.aimRelease},
		{Kind: machine.ContCAS, Addr: l.serving},
	}
	for i := range l.wait {
		w := &l.wait[i]
		w.acquire, w.release = acquire, release
		l.acquire[i], l.release[i] = w.acquire[:], w.release[:]
	}
	return l
}

// The acquire script's ops, by pc.
const (
	healTake        = iota // ContFetchAdd of the ticket dispenser
	healAim                // ContBranch: note the ticket, aim the announcement
	healAnnounce           // ContStore of the ticket and owner to its slot
	healLoadServing        // ContLoad of the serving counter
	healCheck              // ContBranch: served, excised (requeue), or inspect the head
	healLoadSlot           // ContLoad of the head ticket's slot
	healJudge              // ContBranch: excise the head, or poll
	healExcise             // ContCAS of serving from the head ticket past it
	healExcised            // ContBranch: count an excision; reload
	healPoll               // ContDelay of one poll period
	healLoop               // ContBranch: reload
	healGranted            // ContCall: record the held ticket
	healOps
)

// toHealLoad closes the wait's poll loop.
func toHealLoad(*machine.Proc, machine.Word) int { return healLoadServing }

// healProc is one processor's scripts and the loop state the acquire
// branches keep. aim resets the state for each ticket, so a processor
// reborn mid-wait starts its next wait clean.
type healProc struct {
	t         machine.Word // the ticket being waited on
	s         machine.Word // the serving value the last load saw
	headSeen  machine.Word // the head ticket being timed
	headSince sim.Time     // when headSeen was first seen
	acquire   [healOps]machine.ContOp
	release   [2]machine.ContOp
}

// aim notes the ticket t the fetch&add drew and aims its announcement,
// so waiters behind us can identify (and, if we die, excise) us. Every
// head check sees a serving value below t, so starting headSeen at t
// makes the first check start the head's clock.
func (l *healQueueLock) aim(p *machine.Proc, t machine.Word) int {
	w := &l.wait[p.ID()]
	w.t, w.headSeen = t, t
	w.acquire[healAnnounce].Addr = l.slots + machine.Addr(int(t)%l.procs)
	w.acquire[healAnnounce].Val = t<<healOwnerBits | machine.Word(p.ID()+1)
	return healAnnounce
}

// check judges the loaded serving value s.
func (l *healQueueLock) check(p *machine.Proc, s machine.Word) int {
	w := &l.wait[p.ID()]
	if s == w.t {
		return healGranted
	}
	if s > w.t {
		l.requeues++ // our ticket was excised from under us: take another
		return healTake
	}
	if s != w.headSeen {
		w.headSeen, w.headSince = s, p.Now()
	}
	w.s = s
	w.acquire[healLoadSlot].Addr = l.slots + machine.Addr(int(s)%l.procs)
	return healLoadSlot
}

// judge decides from the head's loaded slot whether to excise it.
func (l *healQueueLock) judge(p *machine.Proc, slot machine.Word) int {
	w := &l.wait[p.ID()]
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
	if p.Now()-w.headSince >= l.grace {
		// Backstop: the head has not moved for a full grace period.
		// Catches dead tickets whose owner already recovered (its
		// suspicion cleared at rebirth, but its old ticket remains).
		return w.excise(s)
	}
	return healPoll
}

// excise aims the CAS at moving serving from head ticket s past it.
func (w *healProc) excise(s machine.Word) int {
	w.acquire[healExcise].Val, w.acquire[healExcise].New = s, s+1
	return healExcise
}

// excised counts a won excision; either way the wait reloads serving.
func (l *healQueueLock) excised(_ *machine.Proc, ok machine.Word) int {
	if ok != 0 {
		l.excisions++
	}
	return healLoadServing
}

// granted records the ticket we were served on.
func (l *healQueueLock) granted(p *machine.Proc) { l.tickets[p.ID()] = l.wait[p.ID()].t }

// aimRelease aims the release CAS at moving serving past our ticket.
// CAS, not store: if our ticket was grace-excised while we were in the
// critical section, serving has moved past us and the hand-off already
// happened — a blind increment would skip a live waiter.
func (l *healQueueLock) aimRelease(p *machine.Proc, _ machine.Word) int {
	w := &l.wait[p.ID()]
	t := l.tickets[p.ID()]
	w.release[1].Val, w.release[1].New = t, t+1
	return 1
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
//
// Wait is one continuation script (machine.RunScript) per processor,
// encoding this Go program op for op: the rejoin check, the arrival,
// the completion scan (loads and stores at addresses its branches
// compute, and Suspects inside a branch), raiseTo's compare&swap loop,
// and the poll with its re-scans.
//
//	if p.Load(dead+me) != 0 { p.Store(dead+me, 0); rejoins++ }
//	e := epoch[me]+1; epoch[me] = e
//	p.Store(arrive+me, e)
//	if scan(p, e) { raiseTo(p, release, e); return }
//	deadline := p.Now() + budget
//	for p.Load(release) < e {
//		if p.Now() >= deadline {
//			if scan(p, e) { raiseTo(p, release, e); return }
//			deadline = p.Now() + budget
//		}
//		p.Delay(poll)
//	}
//
// The Go form, verbatim, is the closure twin in twins_test.go.
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
	wait      []reconfWait   // per processor: the Wait script
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
	b := &reconfBarrier{
		arrive:  m.AllocShared(m.Procs()),
		dead:    m.AllocShared(m.Procs()),
		release: m.AllocShared(1),
		procs:   m.Procs(),
		budget:  budget,
		poll:    poll,
		epoch:   make([]machine.Word, m.Procs()),
		wait:    make([]reconfWait, m.Procs()),
	}
	rejoined := machine.ContOp{Kind: machine.ContCall, Fn: b.rejoined}
	takeEpisode := machine.ContOp{Kind: machine.ContBranch, Branch: b.takeEpisode}
	scanNext := machine.ContOp{Kind: machine.ContBranch, Branch: b.scanNext}
	arrived := machine.ContOp{Kind: machine.ContBranch, Branch: b.arrived}
	judge := machine.ContOp{Kind: machine.ContBranch, Branch: b.judge}
	evictedOne := machine.ContOp{Kind: machine.ContBranch, Branch: b.evictedOne}
	polled := machine.ContOp{Kind: machine.ContBranch, Branch: b.polled}
	raiseTest := machine.ContOp{Kind: machine.ContBranch, Branch: b.raiseTest}
	for i := range b.wait {
		w := &b.wait[i]
		mine := b.dead + machine.Addr(i)
		w.ops = [reconfOps]machine.ContOp{
			reconfLoadMark:    {Kind: machine.ContLoad, Addr: mine},
			reconfEvicted:     {Kind: machine.ContBranch, Branch: evicted},
			reconfClearMark:   {Kind: machine.ContStore, Addr: mine},
			reconfRejoined:    rejoined,
			reconfArrive:      takeEpisode,
			reconfStoreArrive: {Kind: machine.ContStore, Addr: b.arrive + machine.Addr(i)},
			reconfScanNext:    scanNext,
			reconfLoadArrive:  {Kind: machine.ContLoad},
			reconfArrived:     arrived,
			reconfLoadDead:    {Kind: machine.ContLoad},
			reconfJudge:       judge,
			reconfEvict:       {Kind: machine.ContStore, Val: 1},
			reconfEvictedOne:  evictedOne,
			reconfLoadRelease: {Kind: machine.ContLoad, Addr: b.release},
			reconfPolled:      polled,
			reconfPoll:        {Kind: machine.ContDelay, Dur: poll},
			reconfPollLoop:    {Kind: machine.ContBranch, Branch: toReconfLoadRelease},
			reconfRaiseLoad:   {Kind: machine.ContLoad, Addr: b.release},
			reconfRaiseTest:   raiseTest,
			reconfRaiseCAS:    {Kind: machine.ContCAS, Addr: b.release},
			reconfRaised:      {Kind: machine.ContBranch, Branch: raised},
		}
	}
	return b
}

// The Wait script's ops, by pc.
const (
	reconfLoadMark    = iota // ContLoad of our eviction mark
	reconfEvicted            // ContBranch: evicted (clear the mark), or arrive
	reconfClearMark          // ContStore of 0 to our mark
	reconfRejoined           // ContCall: count the rejoin
	reconfArrive             // ContBranch: next episode e, aim the arrival, start the scan
	reconfStoreArrive        // ContStore of e to our arrival word
	reconfScanNext           // ContBranch: next processor q, or the scan's verdict
	reconfLoadArrive         // ContLoad of q's arrival word
	reconfArrived            // ContBranch: q arrived (next), or check its mark
	reconfLoadDead           // ContLoad of q's eviction mark
	reconfJudge              // ContBranch: q evicted (next), suspected (evict), or pending
	reconfEvict              // ContStore of 1 to q's mark
	reconfEvictedOne         // ContBranch: count the eviction; next
	reconfLoadRelease        // ContLoad of the release word
	reconfPolled             // ContBranch: released (end), re-scan, or poll
	reconfPoll               // ContDelay of one poll period
	reconfPollLoop           // ContBranch: reload release
	reconfRaiseLoad          // ContLoad of the release word (raiseTo)
	reconfRaiseTest          // ContBranch: already raised (end), or aim the CAS
	reconfRaiseCAS           // ContCAS of release up to e
	reconfRaised             // ContBranch: raised (end), or reload
	reconfOps
)

// reconfWait is one processor's Wait script and the state its branches
// keep: the episode, the scan's position and verdict, and the re-scan
// deadline.
type reconfWait struct {
	e        machine.Word
	q        int  // the processor the scan looks at next
	done     bool // no pending processor found so far
	rescan   bool // the scan runs from the poll loop
	deadline sim.Time
	ops      [reconfOps]machine.ContOp
}

func (b *reconfBarrier) Wait(p *machine.Proc) { p.RunScript(b.wait[p.ID()].ops[:]) }

// evicted sends an evicted processor (dead, or falsely suspected) to
// clear its mark and catch up from its own episode counter. Missed
// episodes complete instantly — everyone else already arrived at them
// or is evicted — so no survivor ever waits on a corpse that might not
// return, yet a returning processor still gets its full episode count.
func evicted(_ *machine.Proc, mark machine.Word) int {
	if mark != 0 {
		return reconfClearMark
	}
	return reconfArrive
}

func (b *reconfBarrier) rejoined(*machine.Proc) { b.rejoins++ }

// takeEpisode takes the next episode, aims the arrival store at it and
// starts the first scan.
func (b *reconfBarrier) takeEpisode(p *machine.Proc, _ machine.Word) int {
	me := p.ID()
	w := &b.wait[me]
	w.e = b.epoch[me] + 1
	b.epoch[me] = w.e
	w.ops[reconfStoreArrive].Val = w.e
	w.q, w.done, w.rescan = 0, true, false
	return reconfStoreArrive
}

// scanNext aims the scan at processor q, or, past the last one, acts on
// the verdict: a complete episode raises release, and otherwise the
// wait (re)arms its re-scan deadline and polls.
func (b *reconfBarrier) scanNext(p *machine.Proc, _ machine.Word) int {
	w := &b.wait[p.ID()]
	if w.q < b.procs {
		w.ops[reconfLoadArrive].Addr = b.arrive + machine.Addr(w.q)
		return reconfLoadArrive
	}
	if w.done {
		return reconfRaiseLoad
	}
	w.deadline = p.Now() + b.budget
	if w.rescan {
		return reconfPoll
	}
	return reconfLoadRelease
}

// arrived passes over a processor that arrived at (or past) episode e
// and otherwise checks its eviction mark.
func (b *reconfBarrier) arrived(p *machine.Proc, v machine.Word) int {
	w := &b.wait[p.ID()]
	if v >= w.e {
		w.q++
		return reconfScanNext
	}
	w.ops[reconfLoadDead].Addr = b.dead + machine.Addr(w.q)
	return reconfLoadDead
}

// judge passes over an evicted processor, evicts a suspected one, and
// otherwise marks the scan incomplete.
func (b *reconfBarrier) judge(p *machine.Proc, mark machine.Word) int {
	w := &b.wait[p.ID()]
	if mark == 0 {
		if p.Suspects(w.q) {
			w.ops[reconfEvict].Addr = b.dead + machine.Addr(w.q)
			return reconfEvict
		}
		w.done = false
	}
	w.q++
	return reconfScanNext
}

func (b *reconfBarrier) evictedOne(p *machine.Proc, _ machine.Word) int {
	w := &b.wait[p.ID()]
	b.evictions++
	w.q++
	return reconfScanNext
}

// polled ends the wait once release reaches e. Past the deadline it
// re-scans: late crashes become suspicions only with time, so waiting
// on release alone could park the survivors forever.
func (b *reconfBarrier) polled(p *machine.Proc, v machine.Word) int {
	w := &b.wait[p.ID()]
	if v >= w.e {
		return reconfOps
	}
	if p.Now() >= w.deadline {
		w.q, w.done, w.rescan = 0, true, true
		return reconfScanNext
	}
	return reconfPoll
}

func toReconfLoadRelease(*machine.Proc, machine.Word) int { return reconfLoadRelease }

// raiseTest is raiseTo's loop test: release already at e or past ends
// the wait, and otherwise the CAS lifts it from the observed value.
func (b *reconfBarrier) raiseTest(p *machine.Proc, v machine.Word) int {
	w := &b.wait[p.ID()]
	if v >= w.e {
		return reconfOps
	}
	w.ops[reconfRaiseCAS].Val, w.ops[reconfRaiseCAS].New = v, w.e
	return reconfRaiseCAS
}

func raised(_ *machine.Proc, ok machine.Word) int {
	if ok != 0 {
		return reconfOps
	}
	return reconfRaiseLoad
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
