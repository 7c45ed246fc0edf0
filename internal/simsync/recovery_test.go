package simsync

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Crash-recovery determinism and self-healing behavior. The recovery
// seam (EvRecover, rebirth, the failure detector) must preserve the
// whole determinism contract — run twice bit-identical, windows on/off
// A/B identical, no window formed under the plan — and the self-healing
// primitives must actually heal: qheal completes the workload that
// wedges plain qsync, and lease-fence suppresses a usurped holder's
// stale writes.

// recoveryPlanFor extends the stall+degrade determinism plan with a
// crash-at-zero + restart of the last processor. Crashing at t=0 keeps
// every blocking family runnable: the victim holds nothing and has done
// nothing, so its rebirth replays the full body once and all workload
// invariants (mutex checks, item totals) stay exact, while the run
// still exercises the full revival path (event purge, RNG re-derive,
// re-entry) under every family and topology.
func recoveryPlanFor(tp topo.Topology, procs int) *fault.Plan {
	return faultPlanFor(tp, procs).
		WithCrash(procs-1, 0).
		WithRestart(procs-1, 5000)
}

func TestRecoveryDeterminismLocks(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := recoveryPlanFor(tp, procs)
		for _, info := range Locks() {
			name := fmt.Sprintf("%s/%s/P%d/recovery", tp.Name(), info.Name, procs)
			assertLockIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7, Faults: plan},
				info, LockOpts{Iters: 20, CS: 25, Think: 50, CheckMutex: true})
		}
	})
}

func TestRecoveryDeterminismBarriers(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := recoveryPlanFor(tp, procs)
		for _, info := range Barriers() {
			name := fmt.Sprintf("%s/%s/P%d/recovery", tp.Name(), info.Name, procs)
			// reconf evicts the crashed processor and completes episodes
			// without it — correct under this plan, so the runner excuses
			// its early releases (it can Leave, and a processor crashed);
			// every other barrier keeps the all-arrive check.
			assertBarrierIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7, Faults: plan},
				info, BarrierOpts{Episodes: 10, Work: 150})
		}
	})
}

func TestRecoveryDeterminismRWLocks(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := recoveryPlanFor(tp, procs)
		for _, info := range RWLocks() {
			info := info
			name := fmt.Sprintf("%s/%s/P%d/recovery", tp.Name(), info.Name, procs)
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

func TestRecoveryDeterminismSemaphores(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := recoveryPlanFor(tp, procs)
		for _, info := range Semaphores() {
			name := fmt.Sprintf("%s/%s/P%d/recovery", tp.Name(), info.Name, procs)
			assertSemIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7, Faults: plan},
				info, PCOpts{Items: 40, Capacity: 4, Work: 20})
		}
	})
}

func TestRecoveryDeterminismCounters(t *testing.T) {
	forEachConfig(t, func(tp topo.Topology, procs int) {
		plan := recoveryPlanFor(tp, procs)
		for _, info := range Counters() {
			info := info
			name := fmt.Sprintf("%s/%s/P%d/recovery", tp.Name(), info.Name, procs)
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

// TestRecoveryDeterminismMidRunCrash covers the hard case: a processor
// crashes mid-workload — possibly inside the critical section — and is
// reborn later. For every lock the full LockResult (outcome, orphan and
// timeout counts, time-to-recovery) must be bit-identical across repeat
// runs, the windows A/B switch and the lock's closure twin, resilient
// and non-resilient locks alike (a wedged tas run is data too, and must
// wedge identically; a crash can cut a script off mid-run). anderson is
// the exception that proves the check: its reborn processor draws a
// second ticket while its dead incarnation's is outstanding, P+1
// tickets then share P ring slots, and the run must fail with the same
// mutual-exclusion error on every leg.
func TestRecoveryDeterminismMidRunCrash(t *testing.T) {
	for _, tp := range []topo.Topology{topo.Bus, topo.NUMA} {
		for _, procs := range []int{4, 8} {
			plan := fault.NewPlan(fmt.Sprintf("recover/%s/P%d", tp.Name(), procs)).
				WithStall(0, 300, 900).
				WithCrash(procs-1, 700).
				WithRestart(procs-1, 6000)
			for _, info := range Locks() {
				name := fmt.Sprintf("%s/%s/P%d/midrun", tp.Name(), info.Name, procs)
				opts := LockOpts{Iters: 8, CS: 25, Think: 50, Budget: 2048}
				cfg := machine.Config{Procs: procs, Topo: tp, Seed: 11, Faults: plan, MaxSteps: 500_000}
				measure := func(noWindows bool) (LockResult, error) {
					run := cfg
					run.NoSpinWindows = noWindows
					return RunLockIn(nil, run, info, opts)
				}
				if info.Name == "anderson" {
					assertMidRunViolation(t, name, cfg, info, opts, measure)
					continue
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

// assertMidRunViolation holds a mid-run crash cell that loses mutual
// exclusion to failing the same way on both repeats, with windows off,
// and in the closure twin.
func assertMidRunViolation(t *testing.T, name string, cfg machine.Config, info LockInfo, opts LockOpts,
	measure func(noWindows bool) (LockResult, error)) {
	t.Helper()
	_, first := measure(false)
	if first == nil || !strings.Contains(first.Error(), "violated mutual exclusion") {
		t.Fatalf("%s: want a mutual-exclusion violation, got %v", name, first)
	}
	_, second := measure(false)
	_, off := measure(true)
	_, twin := RunLockIn(nil, cfg, closureTwinOf(info), opts)
	for leg, err := range map[string]error{"second run": second, "windows-off run": off, "closure twin": twin} {
		if err == nil || err.Error() != first.Error() {
			t.Errorf("%s: %s: got %v, want %v", name, leg, err, first)
		}
	}
}

// TestHealQueueCompletesWhereQSyncWedges is the FT3 acceptance property
// in miniature: under a crash-with-restart plan that kills a processor
// while it is holding or queued on the lock (Think=0 keeps every
// processor contending), plain qsync wedges forever — the hand-off
// chain dies with the corpse — while qheal excises the dead ticket once
// the failure detector fires and completes the whole workload,
// measuring the reborn processor's time back to useful work.
func TestHealQueueCompletesWhereQSyncWedges(t *testing.T) {
	cfg := machine.Config{Procs: 8, Topo: topo.Bus, Seed: 17, MaxSteps: 2_000_000}
	opts := LockOpts{Iters: 8, CS: 25, Think: 0}

	// A crash instant can land between the victim's memory operations
	// (the enqueue RMW is simply cut off and the queue never contains
	// the corpse), so scan a few instants for one that kills the victim
	// while it is actually holding or queued — where qsync wedges.
	var plan *fault.Plan
	for at := sim.Time(500); at <= 1200; at += 37 {
		cfg.Faults = fault.NewPlan(fmt.Sprintf("heal/crash@%d", at)).
			WithCrash(0, at).
			WithRestart(0, 9000)
		qs, err := RunLockIn(nil, cfg, mustLock(t, "qsync"), opts)
		if err != nil {
			t.Fatalf("qsync under crash@%d: %v", at, err)
		}
		if qs.Outcome != OutcomeOK {
			plan = cfg.Faults
			break
		}
	}
	if plan == nil {
		t.Fatal("no crash instant wedged qsync; the failure mode this test measures is gone")
	}

	healInfo := LockInfo{Name: "qheal-ft", FIFO: true, Make: func(m *machine.Machine) Lock {
		return NewHealQueueGrace(m, 1<<40, 64) // detector-only healing: no grace backstop
	}}
	cfg.Faults = plan
	heal, err := RunLockIn(nil, cfg, healInfo, opts)
	if err != nil {
		t.Fatalf("qheal: %v", err)
	}
	if heal.Outcome != OutcomeOK {
		t.Fatalf("qheal did not complete: %+v", heal)
	}
	if heal.Recovered != 1 || heal.Crashed != 1 {
		t.Errorf("qheal: want 1 crashed + 1 recovered, got %d/%d", heal.Crashed, heal.Recovered)
	}
	if heal.Recoveries != 1 || heal.RecoveryCycles <= 0 {
		t.Errorf("qheal: time-to-recovery not measured: recoveries=%d cycles=%d",
			heal.Recoveries, heal.RecoveryCycles)
	}
	// At-least-once across incarnations: an acquisition the victim
	// completed but crashed before finishing its iteration is redone by
	// the rebirth, so the count can exceed the quota but never trail it.
	if heal.Acquisitions < uint64(cfg.Procs*opts.Iters) {
		t.Errorf("qheal: want >= %d acquisitions, got %d", cfg.Procs*opts.Iters, heal.Acquisitions)
	}
}

// TestHealQueueExcisesDeadTicket drives qheal directly and checks the
// healing counters: the dead processor's ticket is excised once the
// detector suspects it, and a live waiter whose ticket was excised
// from under it by a false positive (a stall longer than the suspicion
// threshold while queued) detects the excision and re-enqueues with a
// fresh ticket.
func TestHealQueueExcisesDeadTicket(t *testing.T) {
	plan := fault.NewPlan("heal/excise").
		WithCrash(0, 700).
		WithRestart(0, 9000).
		// Long enough past the detector threshold (2000) to read as a false
		// positive: processor 1's queued ticket gets excised while it
		// sleeps, forcing the requeue path when it wakes.
		WithStall(1, 1000, 4000)
	m, err := machine.New(machine.Config{Procs: 4, Topo: topo.Bus, Seed: 23, Faults: plan, MaxSteps: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	lk := NewHealQueueGrace(m, 1<<40, 64).(*healQueueLock)
	count := m.AllocShared(1)
	if err := m.Run(func(p *machine.Proc) {
		for i := 0; i < 6; i++ {
			lk.Acquire(p)
			p.Store(count, p.Load(count)+1)
			p.Delay(25)
			lk.Release(p)
		}
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if lk.Excisions() == 0 {
		t.Error("no dead ticket was excised")
	}
	if lk.Requeues() == 0 {
		t.Error("no excised live waiter ever re-enqueued")
	}
}

// TestHealQueueUnannouncedHead: a waiter can find the head ticket taken
// but not yet announced — its owner was cut off between the fetch&add
// and the announcing store, so the slot still reads 0. That slot names
// no processor, so the waiter must not ask the failure detector about
// it (under a fault plan, where the detector's tables exist, the lookup
// would index processor -1); it keeps polling and takes its turn once
// the head ticket is served.
func TestHealQueueUnannouncedHead(t *testing.T) {
	plan := fault.NewPlan("heal/unannounced").WithStall(0, 200, 400)
	m, err := machine.New(machine.Config{Procs: 2, Topo: topo.Bus, Seed: 3, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	lk := NewHealQueueGrace(m, 1<<40, 64).(*healQueueLock)
	acquired := false
	if err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.FetchAdd(lk.next, 1) // ticket 0, never announced
			p.Delay(1000)
			p.Store(lk.serving, 1) // serve it without ever announcing
			return
		}
		p.Delay(100)
		lk.Acquire(p) // ticket 1 polls behind the unannounced head
		acquired = true
		lk.Release(p)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !acquired {
		t.Fatal("waiter behind an unannounced head never acquired")
	}
	if lk.Excisions() != 0 {
		t.Errorf("unannounced head was excised %d times; only the grace backstop may move it", lk.Excisions())
	}
}

// TestLeaseFenceSuppressesStaleWrites exercises the fencing token
// discipline without any fault plan at all: a holder whose lease
// expires mid-critical-section is usurped by a live waiter, and the
// zombie's guarded write must be suppressed and counted while the
// usurper's goes through.
func TestLeaseFenceSuppressesStaleWrites(t *testing.T) {
	run := func() (staleBlocked, freshOK bool, l *fenceLock) {
		m, err := machine.New(machine.Config{Procs: 2, Topo: topo.Bus, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		l = NewLeaseFenceTerm(m, 500, 16).(*fenceLock)
		data := m.AllocShared(1)
		if err := m.Run(func(p *machine.Proc) {
			if p.ID() == 0 {
				l.Acquire(p)
				p.Delay(2000) // sleep through our own lease
				staleBlocked = !l.GuardedStore(p, data, 1)
				l.Release(p) // usurped: must be a no-op
			} else {
				p.Delay(100)
				l.Acquire(p) // blocks until P0's lease expires, then usurps
				freshOK = l.GuardedStore(p, data, 2)
				l.Release(p)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return staleBlocked, freshOK, l
	}
	stale, fresh, l := run()
	if !stale {
		t.Error("usurped holder's guarded store went through")
	}
	if !fresh {
		t.Error("usurper's guarded store was suppressed")
	}
	if l.Takeovers() != 1 {
		t.Errorf("want 1 takeover, got %d", l.Takeovers())
	}
	if l.StaleWrites() != 1 {
		t.Errorf("want 1 stale write, got %d", l.StaleWrites())
	}
	// Determinism: the usurpation race must replay bit-identically.
	stale2, fresh2, l2 := run()
	if stale2 != stale || fresh2 != fresh || l2.Takeovers() != l.Takeovers() || l2.StaleWrites() != l.StaleWrites() {
		t.Error("usurpation outcome diverged between identical runs")
	}
}

// TestLeaseExpiryTieIsDeterministic pins the contested instant: the
// owner tries to renew its lease at the exact moment it expires while a
// usurper is polling for exactly that expiry. Whoever's RMW the engine
// orders first wins — the point is not which one, but that exactly one
// wins and that the outcome replays bit-identically.
func TestLeaseExpiryTieIsDeterministic(t *testing.T) {
	type tieResult struct {
		RenewOK   bool
		Takeovers uint64
		Stale     uint64
	}
	run := func(seed uint64) tieResult {
		m, err := machine.New(machine.Config{Procs: 2, Topo: topo.Bus, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLeaseFenceTerm(m, 1000, 8).(*fenceLock)
		data := m.AllocShared(1)
		var res tieResult
		var expiry sim.Time
		if err := m.Run(func(p *machine.Proc) {
			if p.ID() == 0 {
				l.Acquire(p)
				expiry = sim.Time(p.Load(l.lease.word) & leaseExpMask)
				if d := expiry - p.Now(); d > 0 {
					p.Delay(d) // arrive at the expiry instant exactly
				}
				res.RenewOK = l.Renew(p)
				if !l.GuardedStore(p, data, 1) {
					res.Stale++
				}
				l.Release(p)
			} else {
				// Let the owner win the initial acquire, then poll tightly
				// so a takeover attempt lands at the expiry instant; the
				// tie against the owner's renewal resolves by the engine's
				// (when, seq) order.
				p.Delay(50)
				l.Acquire(p)
				l.Release(p)
			}
		}); err != nil {
			t.Fatal(err)
		}
		res.Takeovers = l.Takeovers()
		return res
	}
	a := run(9)
	b := run(9)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("tie outcome diverged: %+v vs %+v", a, b)
	}
	if a.RenewOK == (a.Takeovers > 0) {
		t.Errorf("want exactly one of renewal and takeover to win, got %+v", a)
	}
	if a.Takeovers > 0 && a.Stale != 1 {
		t.Errorf("usurped owner's write should have been fenced: %+v", a)
	}
}

// TestReconfBarrierEvictsAndRejoins: under a crash-with-restart plan
// the reconfigurable barrier keeps completing episodes without the dead
// processor and readmits it after rebirth, with both healing counters
// visible. The run must also complete every surviving processor's
// episode quota — the property central barriers lose under the same
// plan.
func TestReconfBarrierEvictsAndRejoins(t *testing.T) {
	plan := fault.NewPlan("reconf/crash+restart").
		WithCrash(0, 2000).
		WithRestart(0, 30000)
	cfg := machine.Config{Procs: 8, Topo: topo.Bus, Seed: 29, Faults: plan, MaxSteps: 4_000_000}
	opts := BarrierOpts{Episodes: 30, Work: 150}

	var bar *reconfBarrier
	res, err := RunBarrierIn(nil, cfg, BarrierInfo{Name: "reconf", Make: func(m *machine.Machine) Barrier {
		bar = NewReconfBudget(m, 4096).(*reconfBarrier)
		return bar
	}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeOK {
		t.Fatalf("reconf barrier did not complete: %+v", res)
	}
	if bar.Evictions() == 0 {
		t.Error("dead processor was never evicted from an episode")
	}
	if bar.Rejoins() == 0 {
		t.Error("reborn processor never rejoined the group")
	}
	if res.Recovered != 1 {
		t.Errorf("want 1 recovered processor, got %d", res.Recovered)
	}
	if res.Recoveries != 1 || res.RecoveryCycles <= 0 {
		t.Errorf("time-to-recovery not measured: %+v", res)
	}

	// The Wait script must match its Go form across the crash, the
	// evictions and the rejoin, host-side counts included.
	var twinBar *reconfBarrier
	twin, err := RunBarrierIn(nil, cfg, BarrierInfo{Name: "reconf", Make: func(m *machine.Machine) Barrier {
		twinBar = NewReconfBudget(m, 4096).(*reconfBarrier)
		return reconfTwin{twinBar}
	}}, opts)
	if err != nil {
		t.Fatalf("closure twin: %v", err)
	}
	compareTwin(t, "reconf/crash+restart", cfg.Procs, res, twin, func(r *BarrierResult) *machine.Stats { return &r.Stats })
	if bar.Evictions() != twinBar.Evictions() || bar.Rejoins() != twinBar.Rejoins() {
		t.Errorf("evictions/rejoins: script %d/%d, twin %d/%d",
			bar.Evictions(), bar.Rejoins(), twinBar.Evictions(), twinBar.Rejoins())
	}

	// The same plan wedges the plain central barrier until the restart
	// lands, costing most of the episode budget; with no restart at all
	// it would never complete. Here we only require reconf to beat it.
	centralInfo, _ := BarrierByName("central")
	central, err := RunBarrierIn(nil, cfg, centralInfo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if central.Outcome == OutcomeOK && central.Cycles <= res.Cycles {
		t.Errorf("central barrier (%d cycles) was not slower than reconf (%d) under the crash",
			central.Cycles, res.Cycles)
	}
}
