package machine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestCrashHoldsWordForever: a processor crashed inside its critical
// section never releases the test&set word, so a blocking spinner burns
// events until the step limit — the wedge the robust primitives exist
// to survive.
func TestCrashHoldsWordForever(t *testing.T) {
	plan := fault.NewPlan("crash-in-cs").WithCrash(0, 50)
	m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1, MaxSteps: 20000, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	lock := m.AllocShared(1)
	err = m.RunEach([]func(p *Proc){
		func(p *Proc) {
			if p.TestAndSet(lock) != 0 {
				t.Error("P0 should win the uncontended word")
			}
			p.Delay(10000) // holds the word across the crash instant
			p.Store(lock, 0)
		},
		func(p *Proc) {
			p.Delay(20) // let P0 take the word first
			p.SpinTAS(lock, Backoff{})
		},
	})
	if !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("want ErrStepLimit from the wedged spinner, got %v", err)
	}
	if !m.Crashed(0) {
		t.Error("P0 should be marked crashed")
	}
	if m.Crashed(1) {
		t.Error("P1 crashed without a plan entry")
	}
	if got := m.Peek(lock); got != 1 {
		t.Errorf("crashed holder's word should stay held, got %d", got)
	}
}

// TestCrashDeadlocksParkedWatcher: a watcher-parked waiter whose writer
// crashes generates no further events, so the run ends in the deadlock
// detector — with the crash reported in the error text.
func TestCrashDeadlocksParkedWatcher(t *testing.T) {
	plan := fault.NewPlan("crash-before-store").WithCrash(0, 50)
	m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	flag := m.AllocShared(1)
	err = m.RunEach([]func(p *Proc){
		func(p *Proc) {
			p.Delay(100)
			p.Store(flag, 1) // never reached: crashed at t=50
		},
		func(p *Proc) { p.SpinUntilEq(flag, 1) },
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if !strings.Contains(err.Error(), "crashed") {
		t.Errorf("deadlock report should mention the crash: %v", err)
	}
	if !m.Crashed(0) {
		t.Error("P0 should be marked crashed")
	}
	if got := m.Peek(flag); got != 0 {
		t.Errorf("crashed processor's pending store leaked: flag=%d", got)
	}
}

// TestCrashAtZeroPreventsStart: a crash at t=0 carries a smaller
// sequence number than the start dispatches, so the victim's program
// body never runs at all.
func TestCrashAtZeroPreventsStart(t *testing.T) {
	plan := fault.NewPlan("stillborn").WithCrash(0, 0)
	m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	flag := m.AllocShared(1)
	ran := false
	err = m.RunEach([]func(p *Proc){
		func(p *Proc) { ran = true; p.Store(flag, 1) },
		func(p *Proc) { p.Delay(500) },
	})
	if err != nil {
		t.Fatalf("survivor-only run should finish clean: %v", err)
	}
	if ran {
		t.Error("crashed-at-zero processor ran its body")
	}
	if got := m.Peek(flag); got != 0 {
		t.Errorf("flag=%d after a t=0 crash", got)
	}
}

// TestStallDefersDelivery: an event delivered inside a stall window is
// retimed to the window's end, so the stalled processor's progress
// resumes only after the stall.
func TestStallDefersDelivery(t *testing.T) {
	finish := func(plan *fault.Plan) [2]sim.Time {
		m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		var out [2]sim.Time
		// Lockstep delays keep both processors' events pending, so every
		// completion goes through the engine (the inline fast path needs
		// an empty horizon) and stall deferral is actually exercised.
		err = m.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Delay(60)
			}
			out[p.ID()] = p.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean := finish(nil)
	stalled := finish(fault.NewPlan("stall-p0").WithStall(0, 100, 500))
	if clean[0] != 600 || clean[1] != 600 {
		t.Fatalf("fault-free lockstep run should finish at 600, got %v", clean)
	}
	if stalled[0] < 500+60 {
		t.Errorf("P0's work should resume only after the stall: finished at %d", stalled[0])
	}
	if stalled[1] != clean[1] {
		t.Errorf("P1 is not stalled and must be unaffected: %d vs %d", stalled[1], clean[1])
	}
}

// TestDegradeScalesTraversal: a degraded module's remote accesses cost
// more while the interval is active, and exactly the same afterwards.
func TestDegradeScalesTraversal(t *testing.T) {
	loadCost := func(plan *fault.Plan, when sim.Time) sim.Time {
		m, err := New(Config{Procs: 2, Topo: topo.NUMA, Seed: 1, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		word := m.AllocLocal(1, 1) // lives in module 1: remote for P0
		var cost sim.Time
		err = m.Run(func(p *Proc) {
			if p.ID() != 0 {
				p.Delay(1)
				return
			}
			p.Delay(when)
			before := p.Now()
			p.Load(word)
			cost = p.Now() - before
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	plan := fault.NewPlan("degrade-mod1").WithDegrade(1, 0, 1000, 4)
	clean := loadCost(nil, 100)
	during := loadCost(plan, 100)
	after := loadCost(plan, 2000)
	if during <= clean {
		t.Errorf("degraded remote load should cost more: clean=%d during=%d", clean, during)
	}
	if after != clean {
		t.Errorf("after the interval the cost must match fault-free: clean=%d after=%d", clean, after)
	}
}

// faultedConfig is the shared plan for the determinism checks below:
// stalls and degradations only (crashes would wedge the finite
// workload), dense enough to overlap the whole contendedProgram run.
func faultedConfig(procs int, seed uint64) Config {
	plan := fault.NewPlan("det").
		WithStall(0, 40, 160).
		WithStall(1, 100, 220).
		WithStall(0, 300, 340).
		WithDegrade(0, 0, 250, 3).
		WithDegrade(1, 120, 480, 2)
	return Config{Procs: procs, Topo: topo.Bus, Seed: seed, Faults: plan}
}

// TestFaultPlanDeterminism: the same plan with the same seed must be
// bit-identical across fresh runs, across pooled Reset, and across the
// windows-on/off A/B pair, and the windows-on run must form no window.
func TestFaultPlanDeterminism(t *testing.T) {
	cfg := faultedConfig(6, 11)
	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1, c1, d1 := contendedProgram(t, m1)

	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2, c2, d2 := contendedProgram(t, m2)
	if !reflect.DeepEqual(st1, st2) || c1 != c2 || !reflect.DeepEqual(d1, d2) {
		t.Errorf("same plan, same seed diverged:\n  %+v\n  %+v", st1, st2)
	}

	// Pooled reuse: run something else, Reset back, rerun.
	if err := m2.Reset(Config{Procs: 3, Topo: topo.NUMA, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	contendedProgram(t, m2)
	if err := m2.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	st3, c3, d3 := contendedProgram(t, m2)
	if !reflect.DeepEqual(st1, st3) || c1 != c3 || !reflect.DeepEqual(d1, d3) {
		t.Errorf("pooled faulted run diverged from fresh:\n  %+v\n  %+v", st1, st3)
	}

	// Windows A/B: a machine with a fault plan forms no windows, so the
	// windows-on run replays every probe per event, exactly like the
	// windows-off one. The same program without the plan does batch:
	// the plan, not the program, keeps the windows shut.
	if st1.WindowOps != 0 {
		t.Errorf("faulted run batched %d window ops; a plan turns windows off", st1.WindowOps)
	}
	clean := cfg
	clean.Faults = nil
	m0, err := New(clean)
	if err != nil {
		t.Fatal(err)
	}
	if st0, _, _ := contendedProgram(t, m0); st0.WindowOps == 0 {
		t.Error("positive control: the fault-free program formed no windows")
	}
	cfgNoWin := cfg
	cfgNoWin.NoSpinWindows = true
	m4, err := New(cfgNoWin)
	if err != nil {
		t.Fatal(err)
	}
	st4, c4, d4 := contendedProgram(t, m4)
	st1.WindowOps = 0
	st4.WindowOps = 0
	if !reflect.DeepEqual(st1, st4) || c1 != c4 || !reflect.DeepEqual(d1, d4) {
		t.Errorf("window batching changed a faulted run:\n  on:  %+v\n  off: %+v", st1, st4)
	}
}

// TestEmptyPlanIsNilPlan: a plan with no entries (or only inert ones)
// must leave the machine bit-identical to an unfaulted one.
func TestEmptyPlanIsNilPlan(t *testing.T) {
	clean, err := New(Config{Procs: 4, Topo: topo.Bus, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	stClean, cClean, _ := contendedProgram(t, clean)

	inert := fault.NewPlan("inert").
		WithStall(99, 10, 20).    // processor out of range
		WithStall(0, 50, 50).     // empty interval
		WithDegrade(0, 10, 90, 1) // factor 1 = no-op
	faulted, err := New(Config{Procs: 4, Topo: topo.Bus, Seed: 9, Faults: inert})
	if err != nil {
		t.Fatal(err)
	}
	if faulted.flt != nil {
		t.Error("a plan of inert entries should compile to no fault state")
	}
	stF, cF, _ := contendedProgram(t, faulted)
	if !reflect.DeepEqual(stClean, stF) || cClean != cF {
		t.Errorf("inert plan changed the run:\n  clean: %+v\n  inert: %+v", stClean, stF)
	}
}

// TestPoolResetAfterStepLimit is the pooling regression for aborted
// runs: a machine whose run tripped ErrStepLimit mid-spin (events still
// queued, spin state live, budget exhausted) must Reset to a state
// bit-identical to a fresh machine — the fault sweeps lean on this,
// since every wedged cell returns its machine to the worker's pool.
func TestPoolResetAfterStepLimit(t *testing.T) {
	cfg := Config{Procs: 4, Topo: topo.Bus, Seed: 11}

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stFresh, cFresh, dFresh := contendedProgram(t, fresh)

	m, err := New(Config{Procs: 4, Topo: topo.Bus, Seed: 11, MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	held := m.AllocShared(1)
	m.Poke(held, 1)
	err = m.Run(func(p *Proc) {
		p.SpinTAS(held, Backoff{}) // never granted: the word starts held
	})
	if !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("setup run should trip the step limit, got %v", err)
	}

	if err := m.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	st, c, d := contendedProgram(t, m)
	if !reflect.DeepEqual(st, stFresh) || c != cFresh || !reflect.DeepEqual(d, dFresh) {
		t.Errorf("Reset after ErrStepLimit diverged from fresh:\n  fresh: %+v\n  reset: %+v", stFresh, st)
	}

	// Same contract after a program panic (the abort-sentinel unwind).
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = m2.Run(func(p *Proc) {
		if p.ID() == 2 {
			panic("injected test panic")
		}
		p.Delay(100)
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("setup run should report the panic, got %v", err)
	}
	if err := m2.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	st2, c2, d2 := contendedProgram(t, m2)
	if !reflect.DeepEqual(st2, stFresh) || c2 != cFresh || !reflect.DeepEqual(d2, dFresh) {
		t.Errorf("Reset after panic abort diverged from fresh:\n  fresh: %+v\n  reset: %+v", stFresh, st2)
	}
}
