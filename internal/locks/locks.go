// Package locks provides real-runtime implementations of the 1991
// baseline spin locks. Each is a sync.Locker, like the core mechanism,
// so the benchmark harness can sweep all of them uniformly.
//
// A caveat the repro band predicted: goroutines are not processors. The
// Go scheduler multiplexes them, so raw spin loops must yield
// (runtime.Gosched) to stay live when oversubscribed, and absolute
// numbers reflect the runtime as much as the algorithm. The simulator
// (internal/machine, internal/simsync) is the instrument for the
// paper's cycle/traffic claims; these implementations show the same
// qualitative ordering on real hardware and make the library useful.
package locks

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/registry"
)

// Info describes one algorithm for registries and sweeps.
type Info struct {
	Name string
	// New constructs a lock sized for at most maxWaiters concurrent
	// lockers (only the array lock cares).
	New func(maxWaiters int) sync.Locker
}

// Registry is the lock family's registry.Set, in canonical order:
// the era's baselines first, the mechanism, and the standard library
// reference point last.
var Registry = registry.NewSet[Info]("locks", func(i Info) string { return i.Name })

func init() {
	Registry.Register(
		Info{Name: "tas", New: func(int) sync.Locker { return new(TASLock) }},
		Info{Name: "ttas", New: func(int) sync.Locker { return new(TTASLock) }},
		Info{Name: "tas-bo", New: func(int) sync.Locker { return NewBackoffLock(4, 4096) }},
		Info{Name: "ticket", New: func(int) sync.Locker { return new(TicketLock) }},
		Info{Name: "anderson", New: func(n int) sync.Locker { return NewAndersonLock(n) }},
		Info{Name: "qsync", New: func(int) sync.Locker { return &core.Mutex{Mode: core.Spin} }},
		Info{Name: "qsync-park", New: func(int) sync.Locker { return &core.Mutex{Mode: core.SpinPark} }},
		Info{Name: "stdlib", New: func(int) sync.Locker { return new(sync.Mutex) }},
	)
}

// All returns the registry in canonical order.
func All() []Info { return Registry.All() }

// ByName returns the registry entry for name, or false.
func ByName(name string) (Info, bool) { return Registry.ByName(name) }

// pause burns a few cycles without yielding, approximating a CPU pause
// instruction; k scales the duration.
func pause(k int) {
	for i := 0; i < k; i++ {
		// The loop body must not be optimizable away.
		if busyLoopSink.Load() > 1<<62 {
			busyLoopSink.Store(0)
		}
	}
}

var busyLoopSink atomic.Int64

// TASLock is the naive test&set lock: atomic swap until it sticks.
type TASLock struct {
	v atomic.Uint32
}

// Lock implements sync.Locker.
func (l *TASLock) Lock() {
	for i := 0; l.v.Swap(1) != 0; i++ {
		if i%4096 == 4095 {
			runtime.Gosched()
		}
	}
}

// Unlock implements sync.Locker.
func (l *TASLock) Unlock() { l.v.Store(0) }

// TTASLock spins on a read and swaps only when the lock looks free.
type TTASLock struct {
	v atomic.Uint32
}

// Lock implements sync.Locker.
func (l *TTASLock) Lock() {
	for {
		for i := 0; l.v.Load() != 0; i++ {
			if i%4096 == 4095 {
				runtime.Gosched()
			}
		}
		if l.v.Swap(1) == 0 {
			return
		}
	}
}

// Unlock implements sync.Locker.
func (l *TTASLock) Unlock() { l.v.Store(0) }

// BackoffLock is test&set with randomized bounded exponential backoff.
type BackoffLock struct {
	v         atomic.Uint32
	base, cap int
	seed      atomic.Uint64
}

// NewBackoffLock builds a backoff lock with the given pause bounds
// (units of pause iterations).
func NewBackoffLock(base, cap int) *BackoffLock {
	if base < 1 {
		base = 1
	}
	if cap < base {
		cap = base
	}
	l := &BackoffLock{base: base, cap: cap}
	l.seed.Store(0x9e3779b97f4a7c15)
	return l
}

// Lock implements sync.Locker.
func (l *BackoffLock) Lock() {
	b := l.base
	for l.v.Swap(1) != 0 {
		// xorshift on a shared seed: cheap, and contention on it only
		// adds to the randomness.
		s := l.seed.Load()
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		l.seed.Store(s)
		pause(b + int(s%uint64(b)))
		runtime.Gosched()
		if b < l.cap {
			b *= 2
		}
	}
}

// Unlock implements sync.Locker.
func (l *BackoffLock) Unlock() { l.v.Store(0) }

// TicketLock grants FIFO via a fetch&add dispenser.
type TicketLock struct {
	next    atomic.Uint32
	serving atomic.Uint32
}

// Lock implements sync.Locker.
func (l *TicketLock) Lock() {
	t := l.next.Add(1) - 1
	for i := 0; l.serving.Load() != t; i++ {
		if i%4096 == 4095 {
			runtime.Gosched()
		}
	}
}

// Unlock implements sync.Locker.
func (l *TicketLock) Unlock() { l.serving.Add(1) }

// paddedFlag keeps each Anderson slot on its own cache line.
type paddedFlag struct {
	v atomic.Uint32
	_ [60]byte
}

// AndersonLock is the array-queue lock: a ring of per-waiter flags.
// The ring must be at least as large as the maximum number of
// concurrent lockers, or waiters would lap each other.
type AndersonLock struct {
	slots []paddedFlag
	tail  atomic.Uint32
	held  uint32 // ring index of the holder; single holder, no races
}

// NewAndersonLock builds an array lock for at most maxWaiters
// concurrent lockers.
func NewAndersonLock(maxWaiters int) *AndersonLock {
	if maxWaiters < 1 {
		maxWaiters = 1
	}
	l := &AndersonLock{slots: make([]paddedFlag, maxWaiters)}
	l.slots[0].v.Store(1)
	return l
}

// Lock implements sync.Locker.
func (l *AndersonLock) Lock() {
	idx := l.tail.Add(1) - 1
	slot := &l.slots[int(idx)%len(l.slots)]
	for i := 0; slot.v.Load() == 0; i++ {
		if i%4096 == 4095 {
			runtime.Gosched()
		}
	}
	slot.v.Store(0)
	l.held = idx
}

// Unlock implements sync.Locker.
func (l *AndersonLock) Unlock() {
	l.slots[int(l.held+1)%len(l.slots)].v.Store(1)
}
