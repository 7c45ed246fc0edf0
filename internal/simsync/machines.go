package simsync

import "repro/internal/machine"

// Every workload runner (RunLockIn, RunBarrierIn, RunRWIn,
// RunProducerConsumerIn, RunCounterIn, UncontendedLockCostIn) takes a
// *machine.Pool. A pooled run draws its machine with Get — which resets
// a cached machine instead of allocating simulated memory — and returns
// it with Put once the measurements are read. Reset machines are
// bit-identical to fresh ones (pinned by the determinism tests), so
// pooled and unpooled runs produce the same results; the pool only
// removes the per-cell allocation cost. A nil pool means "allocate
// fresh".

// getMachine draws a machine for one run.
func getMachine(pool *machine.Pool, cfg machine.Config) (*machine.Machine, error) {
	if pool != nil {
		return pool.Get(cfg)
	}
	return machine.New(cfg)
}

// putMachine returns a machine after a run; no-op without a pool.
func putMachine(pool *machine.Pool, m *machine.Machine) {
	if pool != nil {
		pool.Put(m)
	}
}
