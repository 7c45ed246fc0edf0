package harness

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// Machine pooling exists so that a sweep's steady-state cell cost is
// the simulation itself, not allocation: a fresh 8-processor machine is
// megabytes of simulated memory plus watcher and coherence arrays,
// while a pooled cell only pays the algorithm's own small bookkeeping
// (lock records, result slices, goroutine stacks). This test pins that
// property with a hard budget; a regression that quietly reintroduces
// per-cell machine construction blows the budget by orders of
// magnitude.
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
	// in objects and megabytes in bytes. The budget leaves headroom for
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
