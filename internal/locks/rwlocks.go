package locks

import (
	"sync"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sharded"
)

// RWLock is the real-runtime reader-writer interface the harness
// sweeps. RLock returns an opaque token passed back to RUnlock; lock
// implementations that don't need one ignore it.
type RWLock interface {
	Lock()
	Unlock()
	RLock() RWToken
	RUnlock(RWToken)
}

// RWToken is an opaque read-acquisition handle.
type RWToken any

// RWInfo describes one reader-writer algorithm.
type RWInfo struct {
	Name string
	// New constructs a lock; shards hints how wide sharded variants
	// should stripe (typically GOMAXPROCS).
	New func(shards int) RWLock
}

// RWRegistry is the reader-writer family's registry.Set: the
// mechanism's fair queue lock, its sharded reader-biased derivative,
// the standard library reference point, and the plain-mutex baseline
// (every section exclusive — what an rw lock must beat).
var RWRegistry = registry.NewSet[RWInfo]("rwlocks", func(i RWInfo) string { return i.Name })

func init() {
	RWRegistry.Register(
		RWInfo{Name: "rw-qsync", New: func(int) RWLock { return &qsyncRW{} }},
		RWInfo{Name: "rw-sharded", New: func(n int) RWLock { return &shardedRW{rw: sharded.NewRWMutex(n)} }},
		RWInfo{Name: "rw-stdlib", New: func(int) RWLock { return &stdRW{} }},
		RWInfo{Name: "rw-mutex", New: func(int) RWLock { return &mutexRW{} }},
	)
}

// RWLocks returns the reader-writer registry in canonical order.
func RWLocks() []RWInfo { return RWRegistry.All() }

// qsyncRW adapts core.RWMutex (the mechanism's fair queue lock).
type qsyncRW struct {
	rw core.RWMutex
}

func (l *qsyncRW) Lock()             { l.rw.Lock() }
func (l *qsyncRW) Unlock()           { l.rw.Unlock() }
func (l *qsyncRW) RLock() RWToken    { return l.rw.RLock() }
func (l *qsyncRW) RUnlock(t RWToken) { l.rw.RUnlock(t.(*core.RToken)) }

// shardedRW adapts the reader-biased sharded lock. Tokens are pooled
// pointers so the interface conversion doesn't charge the sharded
// lock one heap allocation per read that the other backends don't pay.
type shardedRW struct {
	rw   *sharded.RWMutex
	pool sync.Pool
}

func (l *shardedRW) Lock()   { l.rw.Lock() }
func (l *shardedRW) Unlock() { l.rw.Unlock() }

func (l *shardedRW) RLock() RWToken {
	t, _ := l.pool.Get().(*sharded.RToken)
	if t == nil {
		t = new(sharded.RToken)
	}
	*t = l.rw.RLock()
	return t
}

func (l *shardedRW) RUnlock(tok RWToken) {
	t := tok.(*sharded.RToken)
	l.rw.RUnlock(*t)
	*t = sharded.RToken{}
	l.pool.Put(t)
}

// mutexRW treats every section as a write through the mechanism's
// mutex — the baseline a reader-writer lock justifies itself against.
type mutexRW struct {
	m core.Mutex
}

func (l *mutexRW) Lock()           { l.m.Lock() }
func (l *mutexRW) Unlock()         { l.m.Unlock() }
func (l *mutexRW) RLock() RWToken  { l.m.Lock(); return nil }
func (l *mutexRW) RUnlock(RWToken) { l.m.Unlock() }

// stdRW wraps sync.RWMutex, the modern reference point.
type stdRW struct {
	rw sync.RWMutex
}

func (l *stdRW) Lock()           { l.rw.Lock() }
func (l *stdRW) Unlock()         { l.rw.Unlock() }
func (l *stdRW) RLock() RWToken  { l.rw.RLock(); return nil }
func (l *stdRW) RUnlock(RWToken) { l.rw.RUnlock() }
