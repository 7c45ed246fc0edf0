package simsync

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Closure twins: the reference every scripted primitive is checked
// against. A primitive runs part of its work as a continuation script
// (machine.RunScript) — the held section and release of a
// ScriptedRelease lock, the acquire poll of lease and lease-fence,
// ticket-bo's proportional-backoff wait, qheal's waitTurn,
// sem-sharded's P. Its twin is the same primitive
// with each script replaced by the Go code the script encodes, so the
// goroutine issues every op itself. The twin must reproduce the script
// run in every result field except Stats.InlineDispatches.
//
// The Go poll loops below are the production code the acquire and P
// scripts replaced, kept verbatim.

// acquireLoop is leaseLock.Acquire's Go poll loop.
func (l *leaseLock) acquireLoop(p *machine.Proc) {
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

// acquireLoop is ticketLock.Acquire with ticket-bo's Go poll loop.
func (t *ticketLock) acquireLoop(p *machine.Proc) {
	ticket := p.FetchAdd(t.next, 1)
	for {
		s := p.Load(t.serving)
		if s == ticket {
			break
		}
		p.Delay(sim.Time(ticket-s) * t.propK)
	}
	t.held = ticket
}

// acquireLoop is healQueueLock.Acquire waiting through waitTurnLoop.
func (l *healQueueLock) acquireLoop(p *machine.Proc) {
	for {
		t := p.FetchAdd(l.next, 1)
		p.Store(l.slots+machine.Addr(int(t)%l.procs), t<<healOwnerBits|machine.Word(p.ID()+1))
		if l.waitTurnLoop(p, t) {
			l.tickets[p.ID()] = t
			return
		}
		l.requeues++
	}
}

// waitTurnLoop is healQueueLock.waitTurn's Go poll loop.
func (l *healQueueLock) waitTurnLoop(p *machine.Proc, t machine.Word) bool {
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

// acquireLoopOf returns the Go loop behind l's acquire script, or nil
// when l's acquire is not scripted.
func acquireLoopOf(l Lock) func(*machine.Proc) {
	switch l := l.(type) {
	case *leaseLock:
		return l.acquireLoop
	case *fenceLock:
		return func(p *machine.Proc) {
			l.lease.acquireLoop(p)
			l.takeToken(p)
		}
	case *healQueueLock:
		return l.acquireLoop
	case *ticketLock:
		if l.propK > 0 {
			return l.acquireLoop
		}
	}
	return nil
}

// closureTwin is a scripted lock's twin. It embeds only Lock, which
// hides a ReleaseScript (RunLockIn then drives the held section through
// its plain Load/Delay/Store loop), and its Acquire runs the acquire
// script's Go loop when the lock has one.
type closureTwin struct {
	Lock
	acquire func(*machine.Proc) // nil: the lock's own Acquire
}

func (c closureTwin) Acquire(p *machine.Proc) {
	if c.acquire != nil {
		c.acquire(p)
		return
	}
	c.Lock.Acquire(p)
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

// twinOf wraps l as its closure twin.
func twinOf(l Lock) Lock {
	twin := closureTwin{Lock: l, acquire: acquireLoopOf(l)}
	if f, ok := l.(FencedLock); ok {
		return fencedTwin{twin, f}
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

// scriptedLock reports whether info builds a lock with a script: a
// ScriptedRelease, or an acquire script. It also holds the twin to
// keeping every interface RunLockIn consults except the script.
func scriptedLock(t *testing.T, info LockInfo) bool {
	t.Helper()
	m, err := machine.New(machine.Config{Procs: 1, SharedWords: 64, LocalWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	l := info.Make(m)
	_, released := l.(ScriptedRelease)
	if !released && acquireLoopOf(l) == nil {
		return false
	}
	twin := twinOf(l)
	_, lb := l.(BoundedLock)
	_, tb := twin.(BoundedLock)
	_, lf := l.(FencedLock)
	_, tf := twin.(FencedLock)
	if lb != tb || lf != tf {
		t.Fatalf("%s: closure twin changes the lock's interfaces (BoundedLock %v->%v, FencedLock %v->%v)",
			info.Name, lb, tb, lf, tf)
	}
	return true
}

// assertClosureTwin checks a scripted lock's script run against its
// closure twin on the same cell (see compareTwin). At P >= 8 the script
// run must report InlineDispatches > 0: contention makes script ops
// cross pending events there, so a zero means scripts silently stopped
// engaging and the comparison proved nothing. Locks without a script
// are skipped.
func assertClosureTwin(t *testing.T, name string, cfg machine.Config, info LockInfo, opts LockOpts, script LockResult) {
	t.Helper()
	if !scriptedLock(t, info) {
		return
	}
	twin, err := RunLockIn(nil, cfg, closureTwinOf(info), opts)
	if err != nil {
		t.Fatalf("%s: closure twin: %v", name, err)
	}
	compareTwin(t, name, cfg.Procs, script, twin, func(r *LockResult) *machine.Stats { return &r.Stats })
}

// compareTwin holds a script run's result to its twin's: equal in every
// field but Stats.InlineDispatches, which is zero for the twin and, at
// P >= 8, nonzero for the script run.
func compareTwin[R any](t *testing.T, name string, procs int, script, twin R, stats func(*R) *machine.Stats) {
	t.Helper()
	ss, ts := stats(&script), stats(&twin)
	if ts.InlineDispatches != 0 {
		t.Fatalf("%s: closure twin advanced %d dispatches in place", name, ts.InlineDispatches)
	}
	if procs >= 8 && ss.InlineDispatches == 0 {
		t.Errorf("%s: script run advanced no dispatch in place", name)
	}
	ss.InlineDispatches = 0
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
