package machine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// contendedProgram is a small deterministic workload touching every
// machine subsystem the pool must reset: RNG streams, raw test&set
// storms (spin batching), watcher parks, bus/module occupancy, and the
// counters. It returns the machine stats, final counter value, and the
// per-processor RNG draw trace.
func contendedProgram(t *testing.T, m *Machine) (Stats, Word, [][]sim.Time) {
	t.Helper()
	lock := m.AllocShared(1)
	flag := m.AllocShared(1)
	count := m.AllocShared(1)
	draws := make([][]sim.Time, m.Procs())
	err := m.Run(func(p *Proc) {
		for i := 0; i < 12; i++ {
			d := p.RNG().Time(40) + 1
			draws[p.ID()] = append(draws[p.ID()], d)
			p.Delay(d)
			p.SpinTAS(lock, Backoff{})
			v := p.Load(count)
			p.Delay(3)
			p.Store(count, v+1)
			p.Store(lock, 0)
		}
		// One watcher-park round: everyone but P0 waits for P0's signal.
		if p.ID() == 0 {
			p.Delay(200)
			p.Store(flag, 1)
		} else {
			p.SpinUntilEq(flag, 1)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m.Stats(), m.Peek(count), draws
}

// TestResetMatchesFresh is the pooling contract at the machine level:
// two back-to-back runs on one machine with Reset in between must equal
// two runs on fresh machines — stats, memory, and RNG streams included —
// across configuration changes (grow, shrink, model switch).
func TestResetMatchesFresh(t *testing.T) {
	cfgs := []Config{
		{Procs: 6, Topo: topo.Bus, Seed: 11},
		{Procs: 12, Topo: topo.NUMA, Seed: 5}, // grow + model switch
		{Procs: 3, Topo: topo.Bus, Seed: 11},  // shrink back
		{Procs: 6, Topo: topo.Bus, Seed: 11},  // repeat of the first
	}
	type outcome struct {
		stats Stats
		count Word
		draws [][]sim.Time
	}
	var fresh []outcome
	for _, cfg := range cfgs {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, c, d := contendedProgram(t, m)
		fresh = append(fresh, outcome{st, c, d})
	}

	m, err := New(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if i > 0 {
			if err := m.Reset(cfg); err != nil {
				t.Fatalf("Reset %d: %v", i, err)
			}
		}
		st, c, d := contendedProgram(t, m)
		if !reflect.DeepEqual(st, fresh[i].stats) {
			t.Errorf("cfg %d: stats diverged after Reset:\n  fresh: %+v\n  reset: %+v", i, fresh[i].stats, st)
		}
		if c != fresh[i].count {
			t.Errorf("cfg %d: counter %d, fresh machine got %d", i, c, fresh[i].count)
		}
		if !reflect.DeepEqual(d, fresh[i].draws) {
			t.Errorf("cfg %d: RNG streams diverged after Reset", i)
		}
	}
}

// TestResetClearsAbortedRunState reuses a machine whose previous run
// ended abnormally — watchers still registered, events still queued, a
// processor deadlocked — and checks the next run starts clean.
func TestResetClearsAbortedRunState(t *testing.T) {
	m, err := New(Config{Procs: 2, Topo: topo.Bus, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	flag := m.AllocShared(1)
	err = m.RunEach([]func(p *Proc){
		func(p *Proc) { p.SpinUntilEq(flag, 1) }, // never satisfied
		func(p *Proc) { p.Delay(50) },
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("setup run should deadlock, got %v", err)
	}

	if err := m.Reset(Config{Procs: 2, Topo: topo.Bus, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	flag2 := m.AllocShared(1)
	if got := m.Peek(flag2); got != 0 {
		t.Fatalf("memory not cleared by Reset: %d", got)
	}
	woke := false
	err = m.RunEach([]func(p *Proc){
		func(p *Proc) { p.SpinUntilEq(flag2, 2); woke = true },
		func(p *Proc) { p.Delay(30); p.Store(flag2, 2) },
	})
	if err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
	if !woke {
		t.Fatal("watcher from the aborted run leaked into the fresh run")
	}
	for _, p := range m.procs {
		if p.watchNext != 0 || p.spin.active {
			t.Fatalf("P%d carries stale spin/watch state after run", p.id)
		}
	}
}

// TestPoolReusesMachines checks the pool actually recycles (Get after
// Put returns the same machine) and that a pooled Get is equivalent to
// New for a different configuration.
func TestPoolReusesMachines(t *testing.T) {
	pool := new(Pool)
	m1, err := pool.Get(Config{Procs: 4, Topo: topo.Bus})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Run(func(p *Proc) { p.Delay(10) }); err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)
	m2, err := pool.Get(Config{Procs: 8, Topo: topo.NUMA, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("pool did not recycle the returned machine")
	}
	if m2.Procs() != 8 || m2.Config().Topo != topo.NUMA {
		t.Fatalf("recycled machine kept the old configuration: %+v", m2.Config())
	}
	if err := m2.Run(func(p *Proc) { p.Delay(1) }); err != nil {
		t.Fatalf("run on recycled machine: %v", err)
	}
	// The pool is empty now; the next Get must allocate.
	m3, err := pool.Get(Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m2 {
		t.Fatal("pool handed out a machine still owned by the caller")
	}
}

// TestNilPoolAllocatesFresh: a nil *Pool is the unpooled path — Get
// builds a fresh machine (passing a config error through) and Put
// drops the machine instead of keeping it.
func TestNilPoolAllocatesFresh(t *testing.T) {
	var pool *Pool
	m1, err := pool.Get(Config{Procs: 2, Topo: topo.Bus})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Run(func(p *Proc) { p.Delay(10) }); err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)
	m2, err := pool.Get(Config{Procs: 2, Topo: topo.Bus})
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 {
		t.Fatal("a nil pool recycled a machine")
	}
	if _, err := pool.Get(Config{Procs: 65, Topo: topo.Bus}); err == nil {
		t.Fatal("a nil pool accepted a config New refuses")
	}
}
