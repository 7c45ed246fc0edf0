package machine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Tests for cross-processor spin-window batching (window.go). The
// contract under test is exactness: enabling windows must change no
// simulated quantity — cycles, traffic, per-processor counters, event
// counts, sequence numbering, RNG stream positions — only host cost.

// stormResult captures everything observable from one storm run.
type stormResult struct {
	Stats   Stats
	RNGPos  []uint64 // one post-run draw per processor: pins stream positions
	Counter Word
	Err     string
}

// runStorm drives a critical-section storm on a fresh machine for cfg
// (stormOn).
func runStorm(t *testing.T, cfg Config, iters int,
	acquire func(p *Proc, lock Addr)) (stormResult, uint64) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stormOn(m, iters, acquire)
}

// stormOn drives a critical-section storm on m: every processor loops
// {think, acquire lock via its discipline, bump counter with a
// read-delay-write, release}. The discipline is per-processor so mixed
// storms can be expressed. WindowOps is scrubbed from the returned
// stats (it is the one legitimately window-dependent field) and
// reported separately.
func stormOn(m *Machine, iters int, acquire func(p *Proc, lock Addr)) (stormResult, uint64) {
	lock := m.AllocShared(1)
	counter := m.AllocShared(1)
	pos := make([]uint64, m.Procs())
	runErr := m.Run(func(p *Proc) {
		rng := p.RNG()
		for it := 0; it < iters; it++ {
			p.Delay(rng.ExpTime(50))
			acquire(p, lock)
			v := p.Load(counter)
			p.Delay(25)
			p.Store(counter, v+1)
			p.Store(lock, 0)
		}
		pos[p.ID()] = rng.Uint64()
	})
	res := stormResult{
		Stats:   m.Stats(),
		RNGPos:  pos,
		Counter: m.Peek(counter),
	}
	if runErr != nil {
		res.Err = runErr.Error()
	}
	win := res.Stats.WindowOps
	res.Stats = unwindowed(res.Stats)
	return res, win
}

// unwindowed returns st as a run with spin windows off reports it: a
// windowed pop replays as a dispatch that advances a still-waiting spin.
func unwindowed(st Stats) Stats {
	st.SpinDispatches += st.WindowOps
	st.WindowOps = 0
	return st
}

// assertStormAB runs the same storm with windows enabled and disabled
// and requires bit-identical results, returning the enabled run's
// window-op count.
func assertStormAB(t *testing.T, cfg Config, iters int,
	acquire func(p *Proc, lock Addr)) uint64 {
	t.Helper()
	on, win := runStorm(t, cfg, iters, acquire)
	offCfg := cfg
	offCfg.NoSpinWindows = true
	off, offWin := runStorm(t, offCfg, iters, acquire)
	if offWin != 0 {
		t.Fatalf("NoSpinWindows run still batched %d window ops", offWin)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("%s P=%d: windows on/off diverged:\n on:  %+v\n off: %+v",
			cfg.Topo, cfg.Procs, on, off)
	}
	return win
}

func rawTAS(p *Proc, lock Addr) { p.SpinTAS(lock, Backoff{}) }

// TestSpinWindowBitIdentical is the core exactness regression: raw
// test&set storms across models and contention regimes, windows on vs
// forced off, everything compared — including per-processor stats and
// RNG stream positions.
func TestSpinWindowBitIdentical(t *testing.T) {
	for _, model := range []topo.Topology{topo.Bus, topo.NUMA} {
		for _, procs := range []int{2, 8, 32} {
			win := assertStormAB(t, Config{Procs: procs, Topo: model, Seed: 7}, 20, rawTAS)
			if procs >= 8 && win == 0 {
				t.Errorf("%s P=%d: windows never engaged on a raw storm", model, procs)
			}
		}
	}
}

// TestSpinWindowHeapMode pins the deepest storm in this file: at P=64,
// a full eligibility-mask word with every window relinking dozens of
// probes, the window must still commit and stay exact.
func TestSpinWindowHeapMode(t *testing.T) {
	win := assertStormAB(t, Config{Procs: 64, Topo: topo.NUMA, Seed: 3}, 8, rawTAS)
	if win == 0 {
		t.Error("P=64 NUMA storm engaged no windows")
	}
}

// TestSpinWindowMixedBackoffStorm mixes draw-free raw spinners with
// RNG-jittered backoff spinners on one word. The jittered spinners are
// ineligible, so their probes bound every window (partial windows may
// still form among the raw spinners); the run must stay bit-identical
// with batching forced off — in particular every jitter draw must
// happen in the same stream position.
func TestSpinWindowMixedBackoffStorm(t *testing.T) {
	mixed := func(p *Proc, lock Addr) {
		if p.ID()%2 == 1 {
			p.SpinTAS(lock, Backoff{Base: 16, Cap: 1024, PropJitter: true})
			return
		}
		p.SpinTAS(lock, Backoff{})
	}
	for _, model := range []topo.Topology{topo.Bus, topo.NUMA} {
		for _, procs := range []int{2, 8, 32} {
			assertStormAB(t, Config{Procs: procs, Topo: model, Seed: 11}, 15, mixed)
		}
	}
}

// TestSpinWindowFixedBackoffStorm pins the eligibility rule: only the
// zero Backoff is window-eligible. A fixed-backoff storm (the
// sem-central latch's schedule) must replay per-event and commit no
// window at all; mixed with raw spinners on the same word, its probes
// and delays bound the windows the raw spinners still form. Both must
// stay bit-identical with batching forced off.
func TestSpinWindowFixedBackoffStorm(t *testing.T) {
	fixed := Backoff{Base: 8, Cap: 8}
	fixedOnly := func(p *Proc, lock Addr) { p.SpinTAS(lock, fixed) }
	mixed := func(p *Proc, lock Addr) {
		if p.ID()%2 == 1 {
			p.SpinTAS(lock, fixed)
			return
		}
		p.SpinTAS(lock, Backoff{})
	}
	for _, model := range []topo.Topology{topo.Bus, topo.NUMA, topo.Cluster} {
		for _, procs := range []int{2, 8, 32} {
			cfg := Config{Procs: procs, Topo: model, Seed: 13}
			if win := assertStormAB(t, cfg, 20, fixedOnly); win != 0 {
				t.Errorf("%s P=%d: fixed-backoff storm committed %d window ops", model, procs, win)
			}
			if win := assertStormAB(t, cfg, 20, mixed); procs >= 8 && win == 0 {
				t.Errorf("%s P=%d: raw spinners mixed with fixed backoff never formed a window", model, procs)
			}
		}
	}
}

// TestSpinWindowTTASStorm mixes raw test&set spinners with TTAS
// waiters on the same word. TTAS waiters alternate between watcher
// parking (which blocks windows on the word) and wake bursts (during
// which windows may legally form, bounded by the waiters' re-check
// events); whatever mixture results must be bit-identical with
// batching forced off.
func TestSpinWindowTTASStorm(t *testing.T) {
	mixed := func(p *Proc, lock Addr) {
		if p.ID()%2 == 1 {
			p.SpinTTAS(lock)
			return
		}
		p.SpinTAS(lock, Backoff{})
	}
	for _, procs := range []int{8, 32} {
		assertStormAB(t, Config{Procs: procs, Topo: topo.Bus, Seed: 5}, 15, mixed)
	}
}

// TestSpinWindowWatchedWordRefusal pins the watcher precondition: with
// the lock permanently held, every TTAS waiter parks on the watcher
// list for good, so the word is watched for the storm's entire
// lifetime and no window may ever form across it.
func TestSpinWindowWatchedWordRefusal(t *testing.T) {
	run := func(noWin bool) (string, Stats) {
		m, err := New(Config{Procs: 8, Topo: topo.Bus, Seed: 1, MaxSteps: 30000, NoSpinWindows: noWin})
		if err != nil {
			t.Fatal(err)
		}
		lock := m.AllocShared(1)
		m.Poke(lock, 1) // held forever
		runErr := m.Run(func(p *Proc) {
			if p.ID()%2 == 1 {
				p.SpinTTAS(lock)
				return
			}
			p.SpinTAS(lock, Backoff{})
		})
		if !errors.Is(runErr, sim.ErrStepLimit) {
			t.Fatalf("want ErrStepLimit, got %v", runErr)
		}
		return runErr.Error(), m.Stats()
	}
	msg, st := run(false)
	if st.WindowOps != 0 {
		t.Errorf("windows batched %d ops across a permanently watched word", st.WindowOps)
	}
	offMsg, offStats := run(true)
	st = unwindowed(st)
	if msg != offMsg || !reflect.DeepEqual(st, offStats) {
		t.Errorf("watched-word runs diverged:\n on:  %s %+v\n off: %s %+v", msg, st, offMsg, offStats)
	}
}

// TestSpinWindowLivelockTrip pins the budget interaction: a storm on a
// word that is never released must trip ErrStepLimit with exactly the
// same step count, clock, and error text as per-event execution — but
// the windowed run reaches the budget in batches of pops, the last one
// cut at the pop budget.
func TestSpinWindowLivelockTrip(t *testing.T) {
	run := func(noWin bool) (string, Stats) {
		m, err := New(Config{Procs: 8, Topo: topo.Bus, Seed: 1, MaxSteps: 30000, NoSpinWindows: noWin})
		if err != nil {
			t.Fatal(err)
		}
		lock := m.AllocShared(1)
		m.Poke(lock, 1) // held forever: the storm can never win
		runErr := m.Run(func(p *Proc) {
			p.SpinTAS(lock, Backoff{})
		})
		if !errors.Is(runErr, sim.ErrStepLimit) {
			t.Fatalf("want ErrStepLimit, got %v", runErr)
		}
		return runErr.Error(), unwindowed(m.Stats())
	}
	onMsg, onStats := run(false)
	offMsg, offStats := run(true)
	if onMsg != offMsg {
		t.Errorf("livelock errors diverged:\n on:  %s\n off: %s", onMsg, offMsg)
	}
	if !reflect.DeepEqual(onStats, offStats) {
		t.Errorf("livelock stats diverged:\n on:  %+v\n off: %+v", onStats, offStats)
	}
	if !strings.Contains(onMsg, "step limit") {
		t.Errorf("unexpected error text: %s", onMsg)
	}
}

// TestSpinWindowPooledReset pins that Reset clears every piece of
// window state: a machine that just ran a heavy storm must reproduce a
// fresh machine's results exactly, including the window decisions.
func TestSpinWindowPooledReset(t *testing.T) {
	cfg := Config{Procs: 16, Topo: topo.Bus, Seed: 9}
	fresh, freshWin := runStorm(t, cfg, 15, rawTAS)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the machine with a different storm, then Reset and re-run
	// the reference workload on the same machine via the same helper
	// path (reconstructing state by hand would miss scratch buffers).
	lock := m.AllocShared(1)
	if err := m.Run(func(p *Proc) { p.SpinTAS(lock, Backoff{}); p.Store(lock, 0) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	reset, resetWin := stormOn(m, 15, rawTAS)
	if reset.Err != "" {
		t.Fatal(reset.Err)
	}
	if !reflect.DeepEqual(fresh, reset) {
		t.Errorf("reset machine diverged from fresh:\n fresh: %+v\n reset: %+v", fresh, reset)
	}
	if freshWin != resetWin {
		t.Errorf("window decisions diverged after Reset: fresh %d, reset %d", freshWin, resetWin)
	}
}

// TestStormOverflowPushes pins how many events the engine's calendar
// hands to its overflow heap (sim.Engine.OverflowPushes) in raw
// test&set storms, windows on and off: none. A window commit relinks
// every pending probe one round of the storm ahead, and an overflow
// probe ends the next window early, so the calendar's span must cover
// the deepest storm's round; this is the test that notices a storm
// outgrowing it. The count is host-side, like WindowOps.
func TestStormOverflowPushes(t *testing.T) {
	for _, c := range []struct {
		tp    topo.Topology
		procs int
		iters int
	}{
		{topo.Bus, 32, 20},
		{topo.NUMA, 256, 4},
		{topo.Cluster, 1024, 2},
	} {
		for _, noWin := range []bool{false, true} {
			m, err := New(Config{Procs: c.procs, Topo: c.tp, Seed: 1,
				SharedWords: 1 << 12, LocalWords: 1 << 8, NoSpinWindows: noWin})
			if err != nil {
				t.Fatal(err)
			}
			res, win := stormOn(m, c.iters, rawTAS)
			if res.Err != "" {
				t.Fatalf("%s P=%d: %s", c.tp, c.procs, res.Err)
			}
			if !noWin && win == 0 {
				t.Errorf("%s P=%d: the storm committed no window", c.tp, c.procs)
			}
			if got := m.eng.OverflowPushes(); got != 0 {
				t.Errorf("%s P=%d NoSpinWindows=%v: OverflowPushes = %d of %d events, want 0",
					c.tp, c.procs, noWin, got, res.Stats.Events)
			}
		}
	}
}
