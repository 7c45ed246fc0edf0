package simsync

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/topo"
)

// Determinism regression: every simulated family, run twice with the
// same seed on every registered topology, must produce bit-identical
// Stats — cycles, traffic, and every per-processor counter. This is
// the guardrail for the processor-side fast path: an operation may
// only retire inline when doing so is invisible to every other
// processor, so any divergence between two runs (or any dependence on
// host scheduling) is a bug in that reasoning, not noise.

// toposUnderTest sweeps the whole topology registry, so a newly
// registered topology is automatically held to the same determinism
// and window-A/B contract as the canonical machines.
func toposUnderTest() []topo.Topology {
	return topo.Registry.All()
}

// procsUnderTest spans the contention regimes: a near-uncontended pair,
// the classic mid-size storm, and a machine large enough that every
// engine path (event queue growth, watcher bursts, spin batching at
// scale) is exercised.
func procsUnderTest() []int {
	return []int{2, 8, 32}
}

// forEachConfig runs fn for every topology × processor-count
// combination in the registry.
func forEachConfig(t *testing.T, fn func(tp topo.Topology, procs int)) {
	t.Helper()
	for _, tp := range toposUnderTest() {
		for _, procs := range procsUnderTest() {
			fn(tp, procs)
		}
	}
}

// assertIdentical runs measure twice and compares the full Stats
// structure including the host-side efficiency fields (Events and
// InlineOps are also compared: the fast-path decisions themselves are
// deterministic functions of the simulation state). A third run forces
// cross-processor spin-window batching off and must match the enabled
// runs on everything except WindowOps itself — event counts and
// sequence-dependent interleavings included, since windowed pops are
// charged to the same counters the per-event path uses.
func assertIdentical(t *testing.T, name string, measure func(noWindows bool) (machine.Stats, error)) {
	t.Helper()
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
	if a.Cycles == 0 {
		t.Errorf("%s: run did no simulated work", name)
	}
	c, err := measure(true)
	if err != nil {
		t.Fatalf("%s: windows-off run: %v", name, err)
	}
	if c.WindowOps != 0 {
		t.Fatalf("%s: NoSpinWindows run still batched %d window ops", name, c.WindowOps)
	}
	if aw := unwindowed(a); !reflect.DeepEqual(aw, c) {
		t.Errorf("%s: window batching changed results:\n  on:  %+v\n  off: %+v", name, aw, c)
	}
}

// unwindowed returns st as a run with spin windows off reports it: a
// windowed pop replays as a dispatch that advances a still-waiting spin.
func unwindowed(st machine.Stats) machine.Stats {
	st.SpinDispatches += st.WindowOps
	st.WindowOps = 0
	return st
}

// scrubRoutes zeroes st's dispatch routes and handoffs, for comparisons
// with a recording that predates them.
func scrubRoutes(st *machine.Stats) {
	st.SpinDispatches, st.InlineDispatches, st.GoroutineDispatches, st.Handoffs = 0, 0, 0, 0
}

// assertLockIdentical holds one lock cell to assertIdentical's contract
// and, for a scripted lock, to assertClosureTwin's. A run under a fault
// plan must also complete, and form no spin window.
func assertLockIdentical(t *testing.T, name string, cfg machine.Config, info LockInfo, opts LockOpts) {
	t.Helper()
	var script LockResult
	assertIdentical(t, name, func(noWindows bool) (machine.Stats, error) {
		c := cfg
		c.NoSpinWindows = noWindows
		res, err := RunLockIn(nil, c, info, opts)
		if !noWindows {
			script = res
		}
		if cfg.Faults != nil {
			assertNoWindows(t, name, res.Stats)
		}
		return res.Stats, completed(err, res.Outcome)
	})
	assertClosureTwin(t, name, cfg, info, opts, script)
}

func TestDeterminismLocks(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		for _, info := range Locks() {
			name := fmt.Sprintf("%s/%s/P%d", tp.Name(), info.Name, procs)
			assertLockIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7},
				info, LockOpts{Iters: 20, CS: 25, Think: 50, CheckMutex: true})
		}
	})
}

func TestDeterminismBarriers(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		for _, info := range Barriers() {
			name := fmt.Sprintf("%s/%s/P%d", tp.Name(), info.Name, procs)
			assertBarrierIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7},
				info, BarrierOpts{Episodes: 10, Work: 150})
		}
	})
}

func TestDeterminismRWLocks(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		for _, info := range RWLocks() {
			info := info
			name := fmt.Sprintf("%s/%s/P%d", tp.Name(), info.Name, procs)
			assertIdentical(t, name, func(noWindows bool) (machine.Stats, error) {
				res, err := RunRWIn(nil,
					machine.Config{Procs: procs, Topo: tp, Seed: 7, NoSpinWindows: noWindows},
					info, RWOpts{Iters: 20, ReadFraction: 0.8, Work: 40, Think: 60})
				return res.Stats, err
			})
		}
	})
}

// assertSemIdentical is assertLockIdentical for a producer/consumer
// cell: assertIdentical's contract, for a scripted semaphore
// assertSemTwin's, and under a fault plan no spin window.
func assertSemIdentical(t *testing.T, name string, cfg machine.Config, info SemaphoreInfo, opts PCOpts) {
	t.Helper()
	var script PCResult
	assertIdentical(t, name, func(noWindows bool) (machine.Stats, error) {
		c := cfg
		c.NoSpinWindows = noWindows
		res, err := RunProducerConsumerIn(nil, c, info, opts)
		if !noWindows {
			script = res
		}
		if cfg.Faults != nil {
			assertNoWindows(t, name, res.Stats)
		}
		return res.Stats, err
	})
	assertSemTwin(t, name, cfg, info, opts, script)
}

func TestDeterminismSemaphores(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		for _, info := range Semaphores() {
			name := fmt.Sprintf("%s/%s/P%d", tp.Name(), info.Name, procs)
			assertSemIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7},
				info, PCOpts{Items: 40, Capacity: 4, Work: 20})
		}
	})
}

func TestDeterminismCounters(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		for _, info := range Counters() {
			info := info
			name := fmt.Sprintf("%s/%s/P%d", tp.Name(), info.Name, procs)
			assertIdentical(t, name, func(noWindows bool) (machine.Stats, error) {
				res, err := RunCounterIn(nil,
					machine.Config{Procs: procs, Topo: tp, Seed: 7, NoSpinWindows: noWindows},
					info, CounterOpts{Incs: 30, Think: 20})
				return res.Stats, err
			})
		}
	})
}

// TestFastPathEngages pins down that the fast path actually fires: a
// single-processor run has an empty event queue almost throughout, so
// nearly every operation must retire inline rather than through the
// engine. Without this, a regression that silently disabled inlining
// would keep every result correct while giving all the performance back.
func TestFastPathEngages(t *testing.T) {
	info, ok := LockByName("tas")
	if !ok {
		t.Fatal("tas lock missing")
	}
	res, err := RunLockIn(nil,
		machine.Config{Procs: 1, Topo: topo.Bus, Seed: 1},
		info, LockOpts{Iters: 50, CS: 25, Think: 50, CheckMutex: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	ops := st.Loads + st.Stores + st.RMWs
	if st.InlineOps == 0 {
		t.Fatalf("no operations retired inline (ops=%d, events=%d)", ops, st.Events)
	}
	if st.InlineOps*10 < ops*9 {
		t.Errorf("uncontended run should retire ~all ops inline: inline=%d of %d ops (events=%d)",
			st.InlineOps, ops, st.Events)
	}
}

// TestPooledRunsMatchFresh pins the machine-pooling contract: drawing a
// machine from a pool (Reset reuse) must produce results bit-identical
// to constructing a fresh machine — stats, per-processor counters, and
// the RNG-driven workload schedule included. The pooled sequence
// deliberately alternates configurations (topology, processor count,
// algorithm) so every Reset transition — grow, shrink, topology switch —
// is exercised on one reused machine.
func TestPooledRunsMatchFresh(t *testing.T) {
	type cell struct {
		lock string
		cfg  machine.Config
	}
	cells := []cell{
		{"tas", machine.Config{Procs: 8, Topo: topo.Bus, Seed: 7}},
		{"qsync", machine.Config{Procs: 16, Topo: topo.NUMA, Seed: 7}},
		{"ttas", machine.Config{Procs: 4, Topo: topo.Bus, Seed: 9}},
		{"tas", machine.Config{Procs: 8, Topo: topo.Bus, Seed: 7}}, // repeat of cell 0
	}
	opts := LockOpts{Iters: 15, CS: 25, Think: 50, CheckMutex: true}

	var fresh []LockResult
	for _, c := range cells {
		info, ok := LockByName(c.lock)
		if !ok {
			t.Fatalf("unknown lock %q", c.lock)
		}
		res, err := RunLockIn(nil, c.cfg, info, opts)
		if err != nil {
			t.Fatalf("fresh %s: %v", c.lock, err)
		}
		fresh = append(fresh, res)
	}

	pool := new(machine.Pool)
	for i, c := range cells {
		info, _ := LockByName(c.lock)
		res, err := RunLockIn(pool, c.cfg, info, opts)
		if err != nil {
			t.Fatalf("pooled %s: %v", c.lock, err)
		}
		if !reflect.DeepEqual(res, fresh[i]) {
			t.Errorf("cell %d (%s): pooled run diverged from fresh:\n  fresh:  %+v\n  pooled: %+v",
				i, c.lock, fresh[i], res)
		}
	}
}

// TestPooledReuseAfterInlineRun pins the continuation-state hygiene of
// Reset reuse (the inline-dispatch extension of the PR 7
// Reset-after-abort suite): a machine that just executed scripted
// continuations — including one whose scripts were cut off mid-run by a
// processor crash — must, after Reset, replay any configuration
// bit-identical to a fresh machine. The sequence alternates the script
// path with its closure twin on one reused machine: a stale active
// script left in a processor's contState would make the drive loop
// hijack the twin's plain dispatches, and a stale pc or accumulator
// would shift the next script run.
func TestPooledReuseAfterInlineRun(t *testing.T) {
	info, ok := LockByName("tas")
	if !ok {
		t.Fatal("tas lock missing")
	}
	twinInfo := closureTwinOf(info)
	opts := LockOpts{Iters: 15, CS: 25, Think: 50, CheckMutex: true}
	base := machine.Config{Procs: 8, Topo: topo.Bus, Seed: 7}

	freshScript, err := RunLockIn(nil, base, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	freshTwin, err := RunLockIn(nil, base, twinInfo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if freshScript.Stats.InlineDispatches == 0 || freshTwin.Stats.InlineDispatches != 0 {
		t.Fatalf("fresh runs: script advanced %d dispatches in place, twin %d; want > 0 and 0",
			freshScript.Stats.InlineDispatches, freshTwin.Stats.InlineDispatches)
	}

	pool := new(machine.Pool)

	// Run 1: a crash plan kills a processor mid-workload, abandoning
	// whatever script it was executing. The Reset drawn for run 2 must
	// scrub that residue.
	crashCfg := base
	crashCfg.Faults = fault.NewPlan("pool/inline-crash").WithCrash(base.Procs-1, 700)
	crashCfg.MaxSteps = 500_000
	fOpts := LockOpts{Iters: 12, CS: 25, Think: 50, Budget: 2048, MaxAttempts: 12}
	crashed, err := RunLockIn(pool, crashCfg, info, fOpts)
	if err != nil {
		t.Fatalf("crashed run: %v", err)
	}
	if crashed.Crashed != 1 {
		t.Fatalf("crash plan should kill one processor, got %d", crashed.Crashed)
	}

	// Runs 2-4 alternate script, twin, script on the reused machine.
	for i, run := range []struct {
		info LockInfo
		want LockResult
	}{{info, freshScript}, {twinInfo, freshTwin}, {info, freshScript}} {
		got, err := RunLockIn(pool, base, run.info, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, run.want) {
			t.Errorf("pooled run %d diverged from fresh:\n  fresh:  %+v\n  pooled: %+v", i+2, run.want, got)
		}
	}
}

// mixedStormLock drives a deliberately heterogeneous storm on one
// word: even processors use the draw-free raw test&set (window
// eligible), odd processors the RNG-jittered exponential backoff of
// tas-bo (ineligible — every delay consumes a jitter draw). The
// ineligible probes bound every window, so batching degrades to
// partial windows or none; what it must never do is change a result.
type mixedStormLock struct {
	l machine.Addr
}

func (ml *mixedStormLock) Acquire(p *machine.Proc) {
	if p.ID()%2 == 1 {
		p.SpinTAS(ml.l, machine.Backoff{Base: 16, Cap: 1024, PropJitter: true})
		return
	}
	p.SpinTAS(ml.l, machine.Backoff{})
}

func (ml *mixedStormLock) Release(p *machine.Proc) {
	p.Store(ml.l, 0)
}

// TestDeterminismMixedFamilyStorm pins window ineligibility of
// RNG-backoff schedules: a storm mixing draw-free TAS spinners with
// tas-bo-style jittered spinners must fall back to (at most partially
// windowed) per-event execution and stay bit-identical with window
// batching forced off — same cycles, traffic, event counts, and jitter
// draws in the same RNG stream positions (any skipped or reordered
// draw would shift every subsequent think time and show up in Cycles
// and AcqPerProc).
func TestDeterminismMixedFamilyStorm(t *testing.T) {
	info := LockInfo{Name: "mixed-storm", Make: func(m *machine.Machine) Lock {
		return &mixedStormLock{l: m.AllocShared(1)}
	}}
	forEachConfig(t, func(tp topo.Topology, procs int) {
		name := fmt.Sprintf("%s/mixed-storm/P%d", tp.Name(), procs)
		opts := LockOpts{Iters: 20, CS: 25, Think: 50, CheckMutex: true}
		on, err := RunLockIn(nil, machine.Config{Procs: procs, Topo: tp, Seed: 13}, info, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		off, err := RunLockIn(nil, machine.Config{Procs: procs, Topo: tp, Seed: 13, NoSpinWindows: true}, info, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		on.Stats = unwindowed(on.Stats)
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: window batching changed results:\n  on:  %+v\n  off: %+v", name, on, off)
		}
	})
}
