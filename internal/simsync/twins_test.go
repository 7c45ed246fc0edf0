package simsync

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Closure twins: the reference every scripted primitive is checked
// against. A primitive runs its work as continuation scripts
// (machine.RunScript): every lock's acquire and release, reconf's Wait,
// sem-sharded's P. Its twin is the same primitive with each script
// replaced by the Go code the script encodes, so the goroutine issues
// every op itself; a lock twin also hides the scripts from RunLockIn,
// which then runs its closure loop instead of the shared iteration
// script. The twin must reproduce the script run in every result field
// except the host-side dispatch routes and handoffs (see compareTwin).
//
// The Go forms below are the production code the scripts replaced,
// kept verbatim, except that a Go form calls the Go form of a helper
// that is now a script too (tas-deadline's AcquireWithin, qheal's
// waitTurn, lease-fence's lease acquire).

func (t *tasLock) acquireGo(p *machine.Proc) { p.SpinTAS(t.l, machine.Backoff{}) }
func (t *tasLock) releaseGo(p *machine.Proc) { p.Store(t.l, 0) }

func (t *ttasLock) acquireGo(p *machine.Proc) { p.SpinTTAS(t.l) }
func (t *ttasLock) releaseGo(p *machine.Proc) { p.Store(t.l, 0) }

func (t *backoffLock) acquireGo(p *machine.Proc) {
	p.SpinTAS(t.l, machine.Backoff{Base: t.params.Base, Cap: t.params.Cap, PropJitter: true})
}
func (t *backoffLock) releaseGo(p *machine.Proc) { p.Store(t.l, 0) }

// acquireGo is ticketLock.Acquire, with ticket-bo's Go poll loop.
func (t *ticketLock) acquireGo(p *machine.Proc) {
	ticket := p.FetchAdd(t.next, 1)
	if t.propK > 0 {
		for {
			s := p.Load(t.serving)
			if s == ticket {
				break
			}
			p.Delay(sim.Time(ticket-s) * t.propK)
		}
	} else {
		p.SpinUntilEq(t.serving, ticket)
	}
	t.held = ticket
}

func (t *ticketLock) releaseGo(p *machine.Proc) {
	// t.held is stable for the whole critical section: the next holder
	// records its ticket only after its spin sees our serving store.
	p.Store(t.serving, t.held+1)
}

func (a *andersonLock) acquireGo(p *machine.Proc) {
	idx := p.FetchAdd(a.tail, 1) % a.size
	slot := a.slots + machine.Addr(idx)
	p.SpinUntilEq(slot, 1)
	p.Store(slot, 0) // reset for the next lap around the ring
	a.held = idx
}

func (a *andersonLock) releaseGo(p *machine.Proc) {
	next := (a.held + 1) % a.size
	p.Store(a.slots+machine.Addr(next), 1)
}

func (g *gtLock) acquireGo(p *machine.Proc) {
	me := p.ID()
	myVal := g.vals[me]
	old := p.FetchStore(g.lock, g.pack(me, myVal))
	prevIdx := int(old >> 1)
	prevVal := old & 1
	p.SpinUntilPred(g.flags+machine.Addr(prevIdx),
		machine.Pred{Op: machine.PredNe, Mask: 1, Want: prevVal})
}

func (g *gtLock) releaseGo(p *machine.Proc) {
	me := p.ID()
	g.vals[me] ^= 1
	p.Store(g.flags+machine.Addr(me), g.vals[me])
}

func (q *qsyncLock) acquireGo(p *machine.Proc) {
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

func (q *qsyncLock) releaseGo(p *machine.Proc) {
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

func (t *deadlineTASLock) acquireWithinGo(p *machine.Proc, budget sim.Time) bool {
	if budget <= 0 {
		budget = 1
	}
	return p.SpinTASFor(t.latch, t.bo, p.Now()+budget)
}

func (t *deadlineTASLock) acquireGo(p *machine.Proc) {
	for !t.acquireWithinGo(p, t.slice) {
		t.timeouts++
		p.Delay(t.penalty)
	}
}

func (t *deadlineTASLock) releaseGo(p *machine.Proc) { p.Store(t.latch, 0) }

// acquireGo is leaseLock.Acquire's Go poll loop.
func (l *leaseLock) acquireGo(p *machine.Proc) {
	for {
		v := p.Load(l.word)
		if v == 0 {
			if p.CompareAndSwap(l.word, 0, l.pack(p, p.Now()+l.lease)) {
				return
			}
			continue
		}
		if exp := sim.Time(v & leaseExpMask); exp <= p.Now() {
			// The lease ran out — the holder crashed, or stalled past
			// its term. CAS on the exact observed word: of all the
			// contenders that saw this expired lease, exactly one wins.
			if p.CompareAndSwap(l.word, v, l.pack(p, p.Now()+l.lease)) {
				l.takeovers++
				return
			}
			continue
		}
		p.Delay(l.poll)
	}
}

func (l *leaseLock) releaseGo(p *machine.Proc) {
	v := p.Load(l.word)
	if int(v>>leaseExpBits) != p.ID()+1 {
		return // usurped after our lease expired; nothing left to release
	}
	// CAS, not store: the lease may expire and be taken over between the
	// load above and this write. Losing the CAS means the usurper owns
	// the word now, and it is theirs to release.
	p.CompareAndSwap(l.word, v, 0)
}

func (l *fenceLock) acquireGo(p *machine.Proc) {
	l.lease.acquireGo(p)
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

func (l *fenceLock) releaseGo(p *machine.Proc) { l.lease.releaseGo(p) }

func (l *healQueueLock) acquireGo(p *machine.Proc) {
	for {
		t := p.FetchAdd(l.next, 1)
		// Announce the ticket so waiters behind us can identify (and,
		// if we die, excise) us.
		p.Store(l.slots+machine.Addr(int(t)%l.procs), t<<healOwnerBits|machine.Word(p.ID()+1))
		if l.waitTurnGo(p, t) {
			l.tickets[p.ID()] = t
			return
		}
		l.requeues++ // our ticket was excised from under us: take another
	}
}

// waitTurnGo polls until ticket t is served (true) or excised (false),
// healing the queue head along the way.
func (l *healQueueLock) waitTurnGo(p *machine.Proc, t machine.Word) bool {
	var headSeen machine.Word
	headSince := p.Now()
	first := true
	for {
		s := p.Load(l.serving)
		if s == t {
			return true
		}
		if s > t {
			return false
		}
		if first || s != headSeen {
			headSeen, headSince = s, p.Now()
			first = false
		}
		slot := p.Load(l.slots + machine.Addr(int(s)%l.procs))
		// An owner field of 0 is a head ticket taken but not yet
		// announced (its owner was cut off between the fetch&add and
		// the store): it names no processor to suspect, so only the
		// grace backstop below can move it.
		if slot>>healOwnerBits == s && slot&healOwnerMask != 0 {
			if owner := int(slot&healOwnerMask) - 1; owner != p.ID() && p.Suspects(owner) {
				// The head ticket's owner is suspected dead: excise it.
				// The CAS makes excision idempotent across waiters, and
				// a serving counter can only move forward, so a healthy
				// hand-off can never be rewound.
				if p.CompareAndSwap(l.serving, s, s+1) {
					l.excisions++
				}
				continue
			}
		}
		if p.Now()-headSince >= l.grace {
			// Backstop: the head has not moved for a full grace period.
			// Catches dead tickets whose owner already recovered (its
			// suspicion cleared at rebirth, but its old ticket remains).
			if p.CompareAndSwap(l.serving, s, s+1) {
				l.excisions++
			}
			continue
		}
		p.Delay(l.poll)
	}
}

func (l *healQueueLock) releaseGo(p *machine.Proc) {
	// CAS, not store: if our ticket was grace-excised while we were in
	// the critical section, serving has moved past us and the hand-off
	// already happened — a blind increment would skip a live waiter.
	t := l.tickets[p.ID()]
	p.CompareAndSwap(l.serving, t, t+1)
}

// scanGo runs one completion pass for episode e: every processor must
// be arrived, evicted, or — when suspected dead — evicted now. Reports
// whether the episode is complete over the surviving membership.
func (b *reconfBarrier) scanGo(p *machine.Proc, e machine.Word) bool {
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

func (b *reconfBarrier) waitGo(p *machine.Proc) {
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
	if b.scanGo(p, e) {
		raiseTo(p, b.release, e)
		return
	}
	deadline := p.Now() + b.budget
	for p.Load(b.release) < e {
		if p.Now() >= deadline {
			// Re-scan: late crashes become suspicions only with time, so
			// waiting on release alone could park the survivors forever.
			if b.scanGo(p, e) {
				raiseTo(p, b.release, e)
				return
			}
			deadline = p.Now() + b.budget
		}
		p.Delay(b.poll)
	}
}

// pLoop is shardedSem.P's Go poll loop.
func (s *shardedSem) pLoop(p *machine.Proc) {
	start := int(s.group[p.ID()])
	for {
		for k := 0; k < s.groups; k++ {
			stripe := s.stripes[(start+k)%s.groups]
			v := p.Load(stripe)
			if v > 0 && p.CompareAndSwap(stripe, v, v-1) {
				return
			}
		}
		p.Delay(semScanBackoff)
	}
}

// goForms is implemented by every scripted lock: the Go forms of its
// acquire and release scripts.
type goForms interface {
	acquireGo(p *machine.Proc)
	releaseGo(p *machine.Proc)
}

// closureTwin is a scripted lock's twin: Acquire and Release run the
// Go forms, and since it embeds only Lock, RunLockIn finds no scripts
// and runs its closure loop.
type closureTwin struct {
	Lock
	g goForms
}

func (c closureTwin) Acquire(p *machine.Proc) { c.g.acquireGo(p) }
func (c closureTwin) Release(p *machine.Proc) { c.g.releaseGo(p) }

// boundedTwin keeps tas-deadline's bounded acquire on its twin, as its
// Go form.
type boundedTwin struct {
	closureTwin
	l *deadlineTASLock
}

func (c boundedTwin) AcquireWithin(p *machine.Proc, budget sim.Time) bool {
	return c.l.acquireWithinGo(p, budget)
}

// fencedTwin keeps a FencedLock's guarded write on its twin, so under a
// fault plan the twin's critical section issues it like the original.
type fencedTwin struct {
	closureTwin
	fenced FencedLock
}

func (c fencedTwin) GuardedStore(p *machine.Proc, a machine.Addr, v machine.Word) bool {
	return c.fenced.GuardedStore(p, a, v)
}

// twinOf wraps scripted lock l as its closure twin.
func twinOf(l Lock) Lock {
	twin := closureTwin{Lock: l, g: l.(goForms)}
	switch l := l.(type) {
	case *deadlineTASLock:
		return boundedTwin{twin, l}
	case *fenceLock:
		return fencedTwin{twin, l}
	}
	return twin
}

// closureTwinOf returns info with every lock it builds wrapped as its
// closure twin.
func closureTwinOf(info LockInfo) LockInfo {
	build := info.Make
	info.Make = func(m *machine.Machine) Lock { return twinOf(build(m)) }
	return info
}

// isScripted reports whether info builds a scripted lock. It also holds
// the lock to having Go forms, and the twin to keeping every interface
// RunLockIn consults except the scripts.
func isScripted(t *testing.T, info LockInfo) bool {
	t.Helper()
	m, err := machine.New(machine.Config{Procs: 1, SharedWords: 64, LocalWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	l := info.Make(m)
	if _, ok := l.(scriptedLock); !ok {
		return false
	}
	if _, ok := l.(goForms); !ok {
		t.Fatalf("%s: scripted lock has no closure twin", info.Name)
	}
	twin := twinOf(l)
	_, lb := l.(BoundedLock)
	_, tb := twin.(BoundedLock)
	_, lf := l.(FencedLock)
	_, tf := twin.(FencedLock)
	if _, ts := twin.(scriptedLock); ts || lb != tb || lf != tf {
		t.Fatalf("%s: closure twin changes the lock's interfaces (scripted %v, BoundedLock %v->%v, FencedLock %v->%v)",
			info.Name, ts, lb, tb, lf, tf)
	}
	return true
}

// assertClosureTwin checks a scripted lock's script run against its
// closure twin on the same cell (see compareTwin). The twin runs no
// script at all, so it must advance no dispatch in place. Locks without
// a script are skipped.
func assertClosureTwin(t *testing.T, name string, cfg machine.Config, info LockInfo, opts LockOpts, script LockResult) {
	t.Helper()
	if !isScripted(t, info) {
		return
	}
	twin, err := RunLockIn(nil, cfg, closureTwinOf(info), opts)
	if err != nil {
		t.Fatalf("%s: closure twin: %v", name, err)
	}
	if twin.Stats.InlineDispatches != 0 {
		t.Fatalf("%s: closure twin advanced %d dispatches in place", name, twin.Stats.InlineDispatches)
	}
	compareTwin(t, name, cfg.Procs, script, twin, func(r *LockResult) *machine.Stats { return &r.Stats })
}

// compareTwin holds a script run's result to its twin's: equal in every
// field but the host-side InlineDispatches, GoroutineDispatches and
// Handoffs. The twin resumes its goroutine at every dispatch that the
// script run advanced in place and the twin did not, so the two sums
// of InlineDispatches and GoroutineDispatches must match; at P >= 8 the
// script run must advance more dispatches in place than the twin
// (contention makes script ops cross pending events there, so anything
// else means the scripts silently stopped engaging and the comparison
// proved nothing).
func compareTwin[R any](t *testing.T, name string, procs int, script, twin R, stats func(*R) *machine.Stats) {
	t.Helper()
	ss, ts := stats(&script), stats(&twin)
	if procs >= 8 && ss.InlineDispatches <= ts.InlineDispatches {
		t.Errorf("%s: script run advanced %d dispatches in place, twin %d", name, ss.InlineDispatches, ts.InlineDispatches)
	}
	if got, want := ss.InlineDispatches+ss.GoroutineDispatches, ts.InlineDispatches+ts.GoroutineDispatches; got != want {
		t.Errorf("%s: script run routed %d dispatches past the spin machine, twin %d", name, got, want)
	}
	ss.InlineDispatches, ss.GoroutineDispatches, ss.Handoffs = ts.InlineDispatches, ts.GoroutineDispatches, ts.Handoffs
	if !reflect.DeepEqual(script, twin) {
		t.Errorf("%s: script run diverged from its closure twin:\n  script: %+v\n  twin:   %+v", name, script, twin)
	}
}

// semTwin is a scripted semaphore's twin: P runs the Go loop.
type semTwin struct {
	Semaphore
	p func(*machine.Proc)
}

func (s semTwin) P(p *machine.Proc) { s.p(p) }

// pLoopOf returns the Go loop behind s's P script, or nil when s's P is
// not scripted.
func pLoopOf(s Semaphore) func(*machine.Proc) {
	if s, ok := s.(*shardedSem); ok {
		return s.pLoop
	}
	return nil
}

// assertSemTwin is assertClosureTwin for a producer/consumer cell.
// Semaphores without a P script are skipped.
func assertSemTwin(t *testing.T, name string, cfg machine.Config, info SemaphoreInfo, opts PCOpts, script PCResult) {
	t.Helper()
	m, err := machine.New(machine.Config{Procs: 1, SharedWords: 64, LocalWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if pLoopOf(info.Make(m, 0)) == nil {
		return
	}
	twinInfo := info
	twinInfo.Make = func(m *machine.Machine, permits int) Semaphore {
		s := info.Make(m, permits)
		return semTwin{s, pLoopOf(s)}
	}
	twin, err := RunProducerConsumerIn(nil, cfg, twinInfo, opts)
	if err != nil {
		t.Fatalf("%s: closure twin: %v", name, err)
	}
	compareTwin(t, name, cfg.Procs, script, twin, func(r *PCResult) *machine.Stats { return &r.Stats })
}

// reconfTwin is reconf's twin: Wait runs the Go form.
type reconfTwin struct{ *reconfBarrier }

func (r reconfTwin) Wait(p *machine.Proc) { r.waitGo(p) }

// assertBarrierIdentical holds one barrier cell to assertIdentical's
// contract and, for reconf, whose Wait is a script, to its closure
// twin's. A run under a fault plan must also complete, and form no
// spin window.
func assertBarrierIdentical(t *testing.T, name string, cfg machine.Config, info BarrierInfo, opts BarrierOpts) {
	t.Helper()
	var script BarrierResult
	assertIdentical(t, name, func(noWindows bool) (machine.Stats, error) {
		c := cfg
		c.NoSpinWindows = noWindows
		res, err := RunBarrierIn(nil, c, info, opts)
		if !noWindows {
			script = res
		}
		if cfg.Faults != nil {
			assertNoWindows(t, name, res.Stats)
		}
		return res.Stats, completed(err, res.Outcome)
	})
	m, err := machine.New(machine.Config{Procs: 1, SharedWords: 64, LocalWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := info.Make(m).(*reconfBarrier); !ok {
		return
	}
	twinInfo := info
	twinInfo.Make = func(m *machine.Machine) Barrier { return reconfTwin{info.Make(m).(*reconfBarrier)} }
	twin, err := RunBarrierIn(nil, cfg, twinInfo, opts)
	if err != nil {
		t.Fatalf("%s: closure twin: %v", name, err)
	}
	if twin.Stats.InlineDispatches != 0 {
		t.Fatalf("%s: closure twin advanced %d dispatches in place", name, twin.Stats.InlineDispatches)
	}
	compareTwin(t, name, cfg.Procs, script, twin, func(r *BarrierResult) *machine.Stats { return &r.Stats })
}

// FuzzLockTwin holds a generated fault-free lock cell — the lock, the
// topology, P, Iters, CS, Think and the seed — to its closure twin: the
// shared iteration script must reproduce the twin's closure loop in
// every result field but the host-side dispatch routes and handoffs.
// The seed corpus is one determinism-grid cell per lock and topology;
// plain go test runs only those.
func FuzzLockTwin(f *testing.F) {
	locks, topos := Locks(), toposUnderTest()
	for li := range locks {
		for ti := range topos {
			f.Add(uint8(li), uint8(ti), uint8(8), uint8(20), uint16(25), uint16(50), uint64(7))
		}
	}
	f.Fuzz(func(t *testing.T, lock, tp, procs, iters uint8, cs, think uint16, seed uint64) {
		info := locks[int(lock)%len(locks)]
		cfg := machine.Config{Procs: 1 + int(procs)%32, Topo: topos[int(tp)%len(topos)], Seed: seed}
		opts := LockOpts{Iters: 1 + int(iters)%40, CS: sim.Time(cs % 256), Think: sim.Time(think % 512), CheckMutex: true}
		name := fmt.Sprintf("%s/%s/P%d/%+v/seed%d", cfg.Topo.Name(), info.Name, cfg.Procs, opts, seed)
		script, err := RunLockIn(nil, cfg, info, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertClosureTwin(t, name, cfg, info, opts, script)
	})
}
