package harness

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// Machine pooling exists so that a sweep's steady-state cell cost is
// the simulation itself, not allocation: a fresh 8-processor bus
// machine is ~0.7 MB (the event calendar, simulated memory, watcher and
// coherence arrays), while a pooled cell only pays the algorithm's own
// small bookkeeping (lock records, result slices, goroutine stacks).
// This test pins that property with a hard budget in objects, which a
// regression that quietly reintroduces per-cell machine construction
// exceeds.
func TestPooledCellAllocationBudget(t *testing.T) {
	info, ok := simsync.LockByName("tas")
	if !ok {
		t.Fatal("tas lock missing")
	}
	cfg := machine.Config{Procs: 8, Topo: topo.Bus, Seed: 7}
	opts := simsync.LockOpts{Iters: 10, CS: 25, Think: 50, CheckMutex: true}

	pool := new(machine.Pool)
	cell := func() {
		if _, err := simsync.RunLockIn(pool, cfg, info, opts); err != nil {
			t.Fatal(err)
		}
	}
	cell() // warm the pool: the first cell constructs the machine

	// Measured steady state is ~17 objects/run (result slices, lock
	// records, goroutine bookkeeping); a fresh machine costs ~3.5x that
	// in objects and ~0.7 MB in bytes. The budget leaves headroom for
	// runtime noise while catching any return to per-cell construction.
	const budget = 48
	avg := testing.AllocsPerRun(20, cell)
	if avg > budget {
		t.Fatalf("pooled sweep cell allocates %.0f objects/run, budget %d", avg, budget)
	}

	// Cross-check that the budget is meaningful: an unpooled cell must
	// cost strictly more than a pooled one.
	unpooled := testing.AllocsPerRun(5, func() {
		if _, err := simsync.RunLockIn(nil, cfg, info, opts); err != nil {
			t.Fatal(err)
		}
	})
	if unpooled <= avg {
		t.Fatalf("unpooled cell (%.0f allocs) not dearer than pooled (%.0f) — pool no longer reuses machines?", unpooled, avg)
	}
}

// TestPooledT1AllocationBudget pins the same property for the
// one-shot uncontended measurement (T1): it runs one acquire/release
// pair per machine, so the unpooled form is dominated by machine
// construction. Drawn from a pool, a T1 point costs only the lock's
// own records.
func TestPooledT1AllocationBudget(t *testing.T) {
	info, ok := simsync.LockByName("tas")
	if !ok {
		t.Fatal("tas lock missing")
	}
	pool := new(machine.Pool)
	point := func() {
		for _, model := range []topo.Topology{topo.Bus, topo.NUMA} {
			if _, _, err := simsync.UncontendedLockCostIn(pool, model, info); err != nil {
				t.Fatal(err)
			}
		}
	}
	point() // warm the pool

	// A pooled T1 point allocates the lock record, the run's body
	// closures, and goroutine bookkeeping — small and constant. The
	// budget covers both models' measurements per run.
	const budget = 48
	avg := testing.AllocsPerRun(20, point)
	if avg > budget {
		t.Fatalf("pooled T1 point allocates %.0f objects/run, budget %d", avg, budget)
	}

	unpooled := testing.AllocsPerRun(5, func() {
		for _, model := range []topo.Topology{topo.Bus, topo.NUMA} {
			if _, _, err := simsync.UncontendedLockCostIn(nil, model, info); err != nil {
				t.Fatal(err)
			}
		}
	})
	if unpooled <= avg {
		t.Fatalf("unpooled T1 point (%.0f allocs) not dearer than pooled (%.0f) — pool no longer reuses machines?", unpooled, avg)
	}
}

// TestDefaultHeapFitsEveryAlgorithm builds every simulated algorithm a
// sweep can run, the FT columns included, on default-sized machines at
// the largest sizes their topologies allow: P=1024 (the machine's
// ceiling) on cluster and NUMA, P=64 on the bus. The default heaps are
// sized near what the algorithms allocate (see machine.Config), so one
// that outgrows them panics here ("heap exhausted") instead of in a
// large sweep.
func TestDefaultHeapFitsEveryAlgorithm(t *testing.T) {
	type maker struct {
		name string
		make func(m *machine.Machine)
	}
	var makers []maker
	for _, li := range slices.Concat(simsync.Locks(), faultLocks(), recoveryLocks()) {
		makers = append(makers, maker{"lock " + li.Name, func(m *machine.Machine) { li.Make(m) }})
	}
	for _, bi := range slices.Concat(simsync.Barriers(), recoveryBarriers()) {
		makers = append(makers, maker{"barrier " + bi.Name, func(m *machine.Machine) { bi.Make(m) }})
	}
	for _, ri := range simsync.RWLocks() {
		makers = append(makers, maker{"rwlock " + ri.Name, func(m *machine.Machine) { ri.Make(m) }})
	}
	for _, si := range simsync.Semaphores() {
		makers = append(makers, maker{"semaphore " + si.Name, func(m *machine.Machine) { si.Make(m, 4) }})
	}
	for _, ci := range simsync.Counters() {
		makers = append(makers, maker{"counter " + ci.Name, func(m *machine.Machine) { ci.Make(m) }})
	}

	pool := new(machine.Pool)
	for _, c := range []struct {
		tp    topo.Topology
		procs int
	}{{topo.Cluster, 1024}, {topo.NUMA, 1024}, {topo.Bus, 64}} {
		for _, mk := range makers {
			m, err := pool.Get(machine.Config{Procs: c.procs, Topo: c.tp})
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s P=%d, %s: %v", c.tp.Name(), c.procs, mk.name, r)
					}
				}()
				mk.make(m)
			}()
			pool.Put(m)
		}
	}
}
