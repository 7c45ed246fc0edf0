package simsync

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/topo"
)

// Fault-plan determinism: the whole determinism contract — run twice
// bit-identical, windows on/off A/B identical — must survive fault
// injection. Stalls and degrades perturb event timing and memory
// pricing mid-run, which is exactly the regime where a spin window
// batching pops across a fault boundary would diverge from the
// per-event execution, so a machine with a plan forms no windows at
// all: every faulted run here must report WindowOps == 0, the
// windows-on leg included. These suites replay every family through
// such plans on every registered topology.
//
// The plans here carry no crashes: a crash can wedge the blocking
// runners (that behavior has its own suite below and in the machine
// package), while stall+degrade plans leave every workload able to
// finish.

// completed turns a run under a fault plan that did not complete into
// an error: with a plan the runners report a step limit or deadlock as
// an Outcome, but every plan in the determinism suites leaves the
// workload able to finish.
func completed(err error, o Outcome) error {
	if err == nil && o != OutcomeOK {
		return fmt.Errorf("run under fault plan ended %v", o)
	}
	return err
}

// assertNoWindows fails a run under a fault plan that batched any
// probe: a machine with a plan forms no spin windows.
func assertNoWindows(t *testing.T, name string, st machine.Stats) {
	t.Helper()
	if st.WindowOps != 0 {
		t.Errorf("%s: faulted run batched %d window ops; a plan turns windows off", name, st.WindowOps)
	}
}

// faultPlanFor builds a deterministic stall+degrade plan sized to the
// short determinism workloads: a couple of mid-run stalls spread over
// the contending processors plus two module degrades.
func faultPlanFor(tp topo.Topology, procs int) *fault.Plan {
	return fault.Generate(
		fmt.Sprintf("det/%s/P%d", tp.Name(), procs),
		0xFA017+uint64(procs),
		fault.Spec{
			Procs:   procs,
			Horizon: 20000,
			Stalls:  procs/2 + 1, StallMin: 200, StallMax: 1000,
			Degrades: 2, DegradeMin: 1000, DegradeMax: 4000, FactorMax: 4,
		})
}

func TestFaultDeterminismLocks(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := faultPlanFor(tp, procs)
		for _, info := range Locks() {
			name := fmt.Sprintf("%s/%s/P%d/faulted", tp.Name(), info.Name, procs)
			assertLockIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7, Faults: plan},
				info, LockOpts{Iters: 20, CS: 25, Think: 50, CheckMutex: true})
		}
	})
}

func TestFaultDeterminismBarriers(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := faultPlanFor(tp, procs)
		for _, info := range Barriers() {
			name := fmt.Sprintf("%s/%s/P%d/faulted", tp.Name(), info.Name, procs)
			assertBarrierIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7, Faults: plan},
				info, BarrierOpts{Episodes: 10, Work: 150})
		}
	})
}

func TestFaultDeterminismRWLocks(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := faultPlanFor(tp, procs)
		for _, info := range RWLocks() {
			info := info
			name := fmt.Sprintf("%s/%s/P%d/faulted", tp.Name(), info.Name, procs)
			assertIdentical(t, name, func(noWindows bool) (machine.Stats, error) {
				res, err := RunRWIn(nil,
					machine.Config{Procs: procs, Topo: tp, Seed: 7, NoSpinWindows: noWindows, Faults: plan},
					info, RWOpts{Iters: 20, ReadFraction: 0.8, Work: 40, Think: 60})
				assertNoWindows(t, name, res.Stats)
				return res.Stats, err
			})
		}
	})
}

func TestFaultDeterminismSemaphores(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := faultPlanFor(tp, procs)
		for _, info := range Semaphores() {
			name := fmt.Sprintf("%s/%s/P%d/faulted", tp.Name(), info.Name, procs)
			assertSemIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7, Faults: plan},
				info, PCOpts{Items: 40, Capacity: 4, Work: 20})
		}
	})
}

func TestFaultDeterminismCounters(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := faultPlanFor(tp, procs)
		for _, info := range Counters() {
			info := info
			name := fmt.Sprintf("%s/%s/P%d/faulted", tp.Name(), info.Name, procs)
			assertIdentical(t, name, func(noWindows bool) (machine.Stats, error) {
				res, err := RunCounterIn(nil,
					machine.Config{Procs: procs, Topo: tp, Seed: 7, NoSpinWindows: noWindows, Faults: plan},
					info, CounterOpts{Incs: 30, Think: 20})
				assertNoWindows(t, name, res.Stats)
				return res.Stats, err
			})
		}
	})
}

// TestFaultDeterminismCrashRunner covers the crash path: fail-stop
// plans that kill processors mid-run, with every attempt counted as an
// iteration (FT1's accounting). The full LockResult — outcome
// classification, attempt and timeout counts, crash tally, throughput —
// must be bit-identical across repeat runs and across the windows A/B
// switch, and the scripted tas and lease locks must match their closure
// twins.
func TestFaultDeterminismCrashRunner(t *testing.T) {
	locks := []string{"tas", "tas-deadline", "lease"}
	for _, tp := range []topo.Topology{topo.Bus, topo.NUMA} {
		for _, procs := range []int{4, 8} {
			// A hand-built plan pins the crash early enough to land inside
			// even the fastest configuration's run (a generated crash
			// drawn past the last real event never materializes — the
			// drive loop stops at live==0 without draining stale events).
			plan := fault.NewPlan(fmt.Sprintf("crash/%s/P%d", tp.Name(), procs)).
				WithStall(0, 300, 900).
				WithCrash(procs-1, 700)
			for _, lk := range locks {
				info := mustLock(t, lk)
				name := fmt.Sprintf("%s/%s/P%d/crash", tp.Name(), lk, procs)
				opts := LockOpts{Iters: 12, CS: 25, Think: 50, Budget: 2048, MaxAttempts: 12}
				cfg := machine.Config{Procs: procs, Topo: tp, Seed: 11, Faults: plan, MaxSteps: 500_000}
				measure := func(noWindows bool) (LockResult, error) {
					run := cfg
					run.NoSpinWindows = noWindows
					return RunLockIn(nil, run, info, opts)
				}
				a, err := measure(false)
				if err != nil {
					t.Fatalf("%s: first run: %v", name, err)
				}
				b, err := measure(false)
				if err != nil {
					t.Fatalf("%s: second run: %v", name, err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: runs diverged:\n  first:  %+v\n  second: %+v", name, a, b)
				}
				c, err := measure(true)
				if err != nil {
					t.Fatalf("%s: windows-off run: %v", name, err)
				}
				if c.Stats.WindowOps != 0 {
					t.Fatalf("%s: NoSpinWindows run still batched %d window ops", name, c.Stats.WindowOps)
				}
				assertClosureTwin(t, name, cfg, info, opts, a)
				assertNoWindows(t, name, a.Stats)
				a.Stats.WindowOps = 0
				if !reflect.DeepEqual(a, c) {
					t.Errorf("%s: window batching changed results:\n  on:  %+v\n  off: %+v", name, a, c)
				}
				if a.Crashed != 1 {
					t.Errorf("%s: plan crashes one processor, run reports %d", name, a.Crashed)
				}
			}
		}
	}
}
