package simsync

import "repro/internal/registry"

// The five simulated algorithm families, each a registry.Set so
// harness sweeps, cmd/syncsim, and benchmarks resolve algorithms
// through one mechanism. Canonical order is registration order: the
// era's baselines first, the reconstructed mechanism (and its modern
// descendants) last.
var (
	// LockSet is the mutual-exclusion family.
	LockSet = registry.NewSet[LockInfo]("sim-locks", func(i LockInfo) string { return i.Name })
	// BarrierSet is the barrier family.
	BarrierSet = registry.NewSet[BarrierInfo]("sim-barriers", func(i BarrierInfo) string { return i.Name })
	// RWLockSet is the reader-writer family.
	RWLockSet = registry.NewSet[RWLockInfo]("sim-rwlocks", func(i RWLockInfo) string { return i.Name })
	// SemaphoreSet is the counting-semaphore family.
	SemaphoreSet = registry.NewSet[SemaphoreInfo]("sim-semaphores", func(i SemaphoreInfo) string { return i.Name })
	// CounterSet is the hot-spot counter family.
	CounterSet = registry.NewSet[CounterInfo]("sim-counters", func(i CounterInfo) string { return i.Name })
)

func init() {
	LockSet.Register(
		LockInfo{Name: "tas", Make: NewTAS, FIFO: false},
		LockInfo{Name: "ttas", Make: NewTTAS, FIFO: false},
		LockInfo{Name: "tas-bo", Make: NewTASBackoff, FIFO: false},
		LockInfo{Name: "ticket", Make: NewTicket, FIFO: true},
		LockInfo{Name: "ticket-bo", Make: NewTicketBackoff, FIFO: true},
		LockInfo{Name: "anderson", Make: NewAnderson, FIFO: true},
		LockInfo{Name: "gt", Make: NewGraunkeThakkar, FIFO: true},
		LockInfo{Name: "qsync", Make: NewQSync, FIFO: true},
		// Fault-tolerant locks (robust.go). With default parameters —
		// long slices, an effectively infinite lease — they are plain
		// deterministic locks in fault-free sweeps; the fault harness
		// tightens their bounds to exercise timeout and takeover paths.
		LockInfo{Name: "tas-deadline", Make: NewTASDeadline, FIFO: false},
		LockInfo{Name: "lease", Make: NewLease, FIFO: false},
		// Self-healing locks (selfheal.go). Same contract: fault-free
		// with default parameters lease-fence is a plain lease lock whose
		// epoch counts acquires, and qheal is an exact FIFO ticket lock
		// (nothing is ever suspected, the grace backstop is unreachable).
		LockInfo{Name: "lease-fence", Make: NewLeaseFence, FIFO: false},
		LockInfo{Name: "qheal", Make: NewHealQueue, FIFO: true},
	)
	BarrierSet.Register(
		BarrierInfo{Name: "central", Make: NewCentralBarrier},
		BarrierInfo{Name: "combining", Make: NewCombiningBarrier},
		BarrierInfo{Name: "dissemination", Make: NewDisseminationBarrier},
		BarrierInfo{Name: "tournament", Make: NewTournamentBarrier},
		BarrierInfo{Name: "qsync-tree", Make: NewQSyncTreeBarrier},
		// Reconfigurable barrier (selfheal.go): fault-free it is an
		// exact all-arrive barrier, so unlike straggler it registers.
		BarrierInfo{Name: "reconf", Make: NewReconfBarrier},
	)
	RWLockSet.Register(
		RWLockInfo{Name: "rw-ctr", Make: NewCounterRW},
		RWLockInfo{Name: "rw-qsync", Make: NewQSyncRW},
	)
	SemaphoreSet.Register(
		SemaphoreInfo{Name: "sem-central", Make: NewCentralSemaphore},
		SemaphoreInfo{Name: "sem-qsync", Make: NewQSyncSemaphore},
		SemaphoreInfo{Name: "sem-sharded", Make: NewShardedSemaphore},
	)
	CounterSet.Register(
		CounterInfo{Name: "ctr-fa", Make: NewFetchAddCounter},
		CounterInfo{Name: "ctr-combine", Make: NewCombiningCounter},
		CounterInfo{Name: "ctr-sharded", Make: NewShardedCounter},
	)
}

// Locks returns the full lock registry in canonical order.
func Locks() []LockInfo { return LockSet.All() }

// LockByName returns the lock registry entry for name, or false.
func LockByName(name string) (LockInfo, bool) { return LockSet.ByName(name) }

// Barriers returns the barrier registry in canonical order.
func Barriers() []BarrierInfo { return BarrierSet.All() }

// BarrierByName returns the barrier registry entry for name, or false.
func BarrierByName(name string) (BarrierInfo, bool) { return BarrierSet.ByName(name) }

// RWLocks returns the reader-writer registry in canonical order.
func RWLocks() []RWLockInfo { return RWLockSet.All() }

// RWLockByName returns the reader-writer registry entry for name, or false.
func RWLockByName(name string) (RWLockInfo, bool) { return RWLockSet.ByName(name) }

// Semaphores returns the semaphore registry in canonical order.
func Semaphores() []SemaphoreInfo { return SemaphoreSet.All() }

// SemaphoreByName returns the semaphore registry entry for name, or false.
func SemaphoreByName(name string) (SemaphoreInfo, bool) { return SemaphoreSet.ByName(name) }

// Counters returns the counter registry in canonical order.
func Counters() []CounterInfo { return CounterSet.All() }

// CounterByName returns the counter registry entry for name, or false.
func CounterByName(name string) (CounterInfo, bool) { return CounterSet.ByName(name) }
