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

// TestRestartReentersBody: a crash with a restart re-runs the program
// body from the top at the restart instant, with the incarnation
// counter bumped and nothing released on the dead incarnation's behalf
// until the new one acts.
func TestRestartReentersBody(t *testing.T) {
	plan := fault.NewPlan("restart").WithCrash(0, 50).WithRestart(0, 400)
	m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	flag := m.AllocShared(1)
	var entries []sim.Time
	err = m.RunEach([]func(p *Proc){
		func(p *Proc) {
			entries = append(entries, p.Now())
			if m.Incarnation(0) == 0 {
				p.Delay(10000) // the crash at t=50 lands inside this delay
				t.Error("first incarnation survived its crash")
			}
			p.Store(flag, 7)
		},
		func(p *Proc) { p.Delay(600) },
	})
	if err != nil {
		t.Fatalf("recovered run should finish clean: %v", err)
	}
	want := []sim.Time{0, 400}
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("body entry times = %v, want %v", entries, want)
	}
	if got := m.Incarnation(0); got != 1 {
		t.Errorf("incarnation = %d, want 1", got)
	}
	if m.Crashed(0) {
		t.Error("a reborn processor must not read as crashed")
	}
	if got := m.Peek(flag); got != 7 {
		t.Errorf("reborn incarnation's store lost: flag=%d", got)
	}
}

// TestSoloCrashRecovery exercises the self-revival path: with one
// processor, the victim is necessarily the goroutine driving the
// engine when its own EvRecover pops, so the rebirth unwinds its stack
// from inside its own drive call.
func TestSoloCrashRecovery(t *testing.T) {
	plan := fault.NewPlan("solo").WithCrash(0, 50).WithRestart(0, 200)
	m, err := New(Config{Procs: 1, Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	err = m.Run(func(p *Proc) {
		runs++
		p.Delay(1000)
	})
	if err != nil {
		t.Fatalf("solo recovery run: %v", err)
	}
	if runs != 2 {
		t.Errorf("body ran %d times, want 2", runs)
	}
	if got := m.Stats().Cycles; got != 1200 {
		t.Errorf("run should end at restart+delay = 1200, got %d", got)
	}
}

// TestCrashAtZeroRestart: a stillborn processor (crashed before its
// start dispatch) is reborn at the restart instant and runs its body
// exactly once, from scratch.
func TestCrashAtZeroRestart(t *testing.T) {
	plan := fault.NewPlan("stillborn-reborn").WithCrash(0, 0).WithRestart(0, 300)
	m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	var entries []sim.Time
	err = m.RunEach([]func(p *Proc){
		func(p *Proc) { entries = append(entries, p.Now()) },
		func(p *Proc) { p.Delay(500) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []sim.Time{300}; !reflect.DeepEqual(entries, want) {
		t.Errorf("body entry times = %v, want %v", entries, want)
	}
	if got := m.Incarnation(0); got != 1 {
		t.Errorf("incarnation = %d, want 1", got)
	}
}

// TestRestartWithoutCrashIsInert: restart entries with no earlier
// crash of the same processor compile away entirely — the nil-plan
// invariance contract extends to them.
func TestRestartWithoutCrashIsInert(t *testing.T) {
	inert := fault.NewPlan("no-crash").
		WithRestart(0, 100).                  // no crash at all
		WithRestart(99, 500).                 // out of range
		WithCrash(1, 400).WithRestart(1, 200) // restart precedes the crash: both the restart and... the crash stays
	m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1, Faults: inert})
	if err != nil {
		t.Fatal(err)
	}
	if m.flt == nil {
		t.Fatal("the live crash entry must still compile")
	}
	if got := m.flt.restartAt[0]; got != -1 {
		t.Errorf("restartAt[0] = %d, want -1 (no crash to recover from)", got)
	}
	if got := m.flt.restartAt[1]; got != -1 {
		t.Errorf("restartAt[1] = %d, want -1 (restart precedes the crash)", got)
	}
}

// TestReclaimAfterRestart: the crash-recovery contract around held
// words — the dead incarnation's lock word stays held across the
// crash, and only the reborn incarnation's explicit store releases it,
// after which a blocked survivor gets through.
func TestReclaimAfterRestart(t *testing.T) {
	plan := fault.NewPlan("reclaim").WithCrash(0, 50).WithRestart(0, 2000)
	m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1, MaxSteps: 500_000, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	lock := m.AllocShared(1)
	var heldAtRebirth Word
	var p1Acquired sim.Time
	err = m.RunEach([]func(p *Proc){
		func(p *Proc) {
			if m.Incarnation(0) == 0 {
				p.TestAndSet(lock) // take the word, then die holding it
				p.Delay(10000)
				return
			}
			heldAtRebirth = m.Peek(lock)
			p.Store(lock, 0) // recovery: release what the dead self held
		},
		func(p *Proc) {
			p.Delay(100) // by now P0 holds the word and is dead
			p.SpinTAS(lock, Backoff{})
			p1Acquired = p.Now()
			p.Store(lock, 0)
		},
	})
	if err != nil {
		t.Fatalf("recovered run should finish clean: %v", err)
	}
	if heldAtRebirth != 1 {
		t.Errorf("dead incarnation's word should still be held at rebirth, got %d", heldAtRebirth)
	}
	if p1Acquired < 2000 {
		t.Errorf("P1 acquired at t=%d, before the holder's rebirth at 2000", p1Acquired)
	}
}

// TestSuspectIntervals pins the compiled failure detector: suspicion
// starts one threshold after the crash, clears at the restart, and a
// stall longer than the threshold reads as a false positive for its
// remainder.
func TestSuspectIntervals(t *testing.T) {
	plan := fault.NewPlan("suspect").
		WithCrash(0, 100).WithRestart(0, 5000).
		WithCrash(1, 200).       // no restart: suspected forever
		WithStall(2, 1000, 4000) // length 3000 > threshold 2000
	m, err := New(Config{Procs: 4, Topo: topo.Bus, Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    int
		t    sim.Time
		want bool
	}{
		{0, 2099, false}, {0, 2100, true}, {0, 4999, true}, {0, 5000, false},
		{1, 2199, false}, {1, 2200, true}, {1, 1 << 40, true},
		{2, 2999, false}, {2, 3000, true}, {2, 3999, true}, {2, 4000, false},
		{3, 1 << 40, false},
	}
	for _, tc := range cases {
		if got := m.SuspectedAt(tc.q, tc.t); got != tc.want {
			t.Errorf("SuspectedAt(P%d, t=%d) = %v, want %v", tc.q, tc.t, got, tc.want)
		}
	}

	// Short stalls (below the threshold) must never trip the detector.
	short, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 1,
		Faults: fault.NewPlan("short").WithStall(0, 100, 1500)})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []sim.Time{0, 1000, 1499, 1500, 9999} {
		if short.SuspectedAt(0, at) {
			t.Errorf("sub-threshold stall suspected at t=%d", at)
		}
	}
}

// TestDeadlockErrorDetail: the typed DeadlockError carries who was
// blocked on what, who was dead, and the watched words with values and
// watcher sets — and the string renders all of it.
func TestDeadlockErrorDetail(t *testing.T) {
	plan := fault.NewPlan("wedge").WithCrash(0, 50)
	m, err := New(Config{Procs: 3, Topo: topo.Bus, Seed: 1, Faults: plan})
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
		func(p *Proc) { p.Delay(10); p.SpinUntilEq(flag, 1) },
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DeadlockError: %v", err, err)
	}
	if !reflect.DeepEqual(de.Crashed, []int{0}) {
		t.Errorf("Crashed = %v, want [0]", de.Crashed)
	}
	if len(de.Blocked) != 2 || de.Blocked[0].Proc != 1 || de.Blocked[1].Proc != 2 {
		t.Fatalf("Blocked = %+v, want P1 and P2", de.Blocked)
	}
	for _, bp := range de.Blocked {
		if bp.On != "watch" || bp.Addr != flag {
			t.Errorf("P%d blocked on %q@%d, want watch@%d", bp.Proc, bp.On, bp.Addr, flag)
		}
	}
	if len(de.Words) != 1 || de.Words[0].Addr != flag || de.Words[0].Value != 0 ||
		!reflect.DeepEqual(de.Words[0].Watchers, []int{1, 2}) {
		t.Errorf("Words = %+v, want word %d value 0 watched by [1 2]", de.Words, flag)
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "crashed: P0", "P1(watch@0)", "P2(watch@0)", "word[0]=0 watched by P1 P2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error string missing %q:\n  %s", want, msg)
		}
	}
}

// TestRecoveryDeterminism: a crash+restart plan through the contended
// program — fresh vs fresh, fresh vs pooled Reset, and the windows
// A/B pair must all be bit-identical.
func TestRecoveryDeterminism(t *testing.T) {
	mkCfg := func(noWin bool) Config {
		// The crash lands mid-workload; the rebirth re-runs the whole
		// body, so the run still completes every invariant check in
		// contendedProgram.
		plan := fault.NewPlan("recover-det").
			WithStall(1, 100, 260).
			WithCrash(0, 0).WithRestart(0, 900).
			WithDegrade(0, 120, 480, 3)
		return Config{Procs: 6, Topo: topo.Bus, Seed: 11, NoSpinWindows: noWin, Faults: plan}
	}
	m1, err := New(mkCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	st1, c1, d1 := contendedProgram(t, m1)
	if got := m1.Incarnation(0); got != 1 {
		t.Fatalf("incarnation = %d, want 1", got)
	}

	m2, err := New(mkCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	st2, c2, d2 := contendedProgram(t, m2)
	if !reflect.DeepEqual(st1, st2) || c1 != c2 || !reflect.DeepEqual(d1, d2) {
		t.Errorf("recovery run diverged across fresh machines:\n  %+v\n  %+v", st1, st2)
	}

	// Pooled reuse across an intervening unrelated run.
	if err := m2.Reset(Config{Procs: 3, Topo: topo.NUMA, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	contendedProgram(t, m2)
	if err := m2.Reset(mkCfg(false)); err != nil {
		t.Fatal(err)
	}
	st3, c3, d3 := contendedProgram(t, m2)
	if !reflect.DeepEqual(st1, st3) || c1 != c3 || !reflect.DeepEqual(d1, d3) {
		t.Errorf("pooled recovery run diverged from fresh:\n  %+v\n  %+v", st1, st3)
	}

	// Windows A/B.
	m4, err := New(mkCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	st4, c4, d4 := contendedProgram(t, m4)
	if st4.WindowOps != 0 {
		t.Fatalf("NoSpinWindows run still batched %d window ops", st4.WindowOps)
	}
	st1.WindowOps = 0
	if !reflect.DeepEqual(st1, st4) || c1 != c4 || !reflect.DeepEqual(d1, d4) {
		t.Errorf("window batching changed a recovery run:\n  on:  %+v\n  off: %+v", st1, st4)
	}
}
