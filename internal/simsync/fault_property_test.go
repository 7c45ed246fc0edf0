package simsync

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/topo"
)

// Property: arbitrary generated fault plans never induce a safety
// violation. Faults may cost throughput — runs are allowed to end at
// the step limit or in deadlock, and bounded attempts may time out —
// but a mutual-exclusion breach among live processors, or a lost
// semaphore permit, is a bug regardless of what the plan did, and the
// runners turn those into errors.

// arbitraryPlan derives a full stall+crash+degrade plan from quick's
// random draws. Everything downstream of the (seed, shape) pair is
// deterministic, so a failing case replays from the logged parameters.
func arbitraryPlan(seed uint64, procs int, stalls, crashes, degrades uint8) *fault.Plan {
	return fault.Generate(
		fmt.Sprintf("prop/s%d", seed),
		seed|1,
		fault.Spec{
			Procs:   procs,
			Horizon: 12000,
			Stalls:  int(stalls % 5), StallMin: 100, StallMax: 1500,
			Crashes:  int(crashes % 3),
			Degrades: int(degrades % 3), DegradeMin: 500, DegradeMax: 3000, FactorMax: 6,
		})
}

// Property: the deadline lock under arbitrary fault plans — including
// crashes that wedge the lock word — upholds mutual exclusion among
// live processors. Bounded attempts turn a dead holder into timeouts,
// so most runs still complete; whatever the outcome, RunLockIn errors
// on any safety breach.
func TestFaultLockSafetyProperty(t *testing.T) {
	for _, name := range []string{"tas-deadline", "tas"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			info := mustLock(t, name)
			f := func(seed uint64, procsRaw, stalls, crashes, degrades uint8) bool {
				procs := int(procsRaw%7) + 2
				plan := arbitraryPlan(seed, procs, stalls, crashes, degrades)
				for _, model := range []topo.Topology{topo.Bus, topo.NUMA} {
					_, err := RunLockIn(nil,
						machine.Config{Procs: procs, Topo: model, Seed: seed | 1, Faults: plan, MaxSteps: 250_000},
						info, LockOpts{Iters: 10, CS: 25, Think: 40, Budget: 600, MaxAttempts: 10})
					if err != nil {
						t.Logf("seed=%d procs=%d plan=%s model=%s: %v", seed, procs, plan.Name(), model, err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: a short-term lease lock under arbitrary crash-only plans
// never lets two live processors into the critical section at once.
// Crashed holders are taken over at lease expiry, so these runs should
// normally complete rather than wedge; either way the safety check is
// what the property asserts.
func TestFaultLeaseSafetyProperty(t *testing.T) {
	info := LockInfo{Name: "lease-short", Make: func(m *machine.Machine) Lock {
		return NewLeaseTerm(m, 2500, 40)
	}}
	f := func(seed uint64, procsRaw, crashes uint8) bool {
		procs := int(procsRaw%7) + 2
		plan := fault.Generate(
			fmt.Sprintf("lease/s%d", seed), seed|1,
			fault.Spec{Procs: procs, Horizon: 8000,
				Crashes: int(crashes%3) + 1})
		_, err := RunLockIn(nil,
			machine.Config{Procs: procs, Topo: topo.Bus, Seed: seed | 1, Faults: plan, MaxSteps: 400_000},
			info, LockOpts{Iters: 10, CS: 30, Think: 40, MaxAttempts: 10})
		if err != nil {
			t.Logf("seed=%d procs=%d: %v", seed, procs, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: semaphore permit conservation holds under arbitrary
// stall/degrade plans. The producer-consumer runner checks internally
// that no item is lost or duplicated and that the buffer never exceeds
// capacity; fault-induced retiming must not break the accounting.
func TestFaultSemaphoreConservationProperty(t *testing.T) {
	info, ok := SemaphoreByName("sem-qsync")
	if !ok {
		t.Fatal("sem-qsync missing")
	}
	f := func(seed uint64, procsRaw, stalls, degrades uint8) bool {
		procs := int(procsRaw%7) + 2
		plan := arbitraryPlan(seed, procs, stalls, 0, degrades)
		_, err := RunProducerConsumerIn(nil,
			machine.Config{Procs: procs, Topo: topo.NUMA, Seed: seed | 1, Faults: plan},
			info, PCOpts{Items: 30, Capacity: 3, Work: 20})
		if err != nil {
			t.Logf("seed=%d procs=%d plan=%s: %v", seed, procs, plan.Name(), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
