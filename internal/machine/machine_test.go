package machine

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

func newTestMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestLoadStoreRoundTrip(t *testing.T) {
	for _, model := range []topo.Topology{topo.Ideal, topo.Bus, topo.NUMA} {
		t.Run(model.Name(), func(t *testing.T) {
			m := newTestMachine(t, Config{Procs: 1, Topo: model})
			a := m.AllocShared(4)
			err := m.Run(func(p *Proc) {
				p.Store(a, 123)
				p.Store(a+1, 456)
				if v := p.Load(a); v != 123 {
					t.Errorf("Load(a) = %d, want 123", v)
				}
				if v := p.Load(a + 1); v != 456 {
					t.Errorf("Load(a+1) = %d, want 456", v)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

func TestAtomicOps(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1, Topo: topo.Ideal})
	a := m.AllocShared(1)
	err := m.Run(func(p *Proc) {
		if old := p.TestAndSet(a); old != 0 {
			t.Errorf("first TestAndSet = %d, want 0", old)
		}
		if old := p.TestAndSet(a); old != 1 {
			t.Errorf("second TestAndSet = %d, want 1", old)
		}
		if old := p.FetchStore(a, 9); old != 1 {
			t.Errorf("FetchStore = %d, want 1", old)
		}
		if old := p.FetchAdd(a, 5); old != 9 {
			t.Errorf("FetchAdd = %d, want 9", old)
		}
		if v := p.Load(a); v != 14 {
			t.Errorf("after FetchAdd = %d, want 14", v)
		}
		if p.CompareAndSwap(a, 13, 99) {
			t.Error("CAS with wrong expected value succeeded")
		}
		if !p.CompareAndSwap(a, 14, 99) {
			t.Error("CAS with right expected value failed")
		}
		if v := p.Load(a); v != 99 {
			t.Errorf("after CAS = %d, want 99", v)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// FetchAdd from many processors must never lose an increment regardless
// of interleaving: the simulated memory is sequentially consistent.
func TestFetchAddAtomicityAcrossProcs(t *testing.T) {
	for _, model := range []topo.Topology{topo.Ideal, topo.Bus, topo.NUMA} {
		t.Run(model.Name(), func(t *testing.T) {
			const procs, iters = 8, 200
			m := newTestMachine(t, Config{Procs: procs, Topo: model})
			a := m.AllocShared(1)
			err := m.Run(func(p *Proc) {
				for i := 0; i < iters; i++ {
					p.FetchAdd(a, 1)
					p.Delay(p.RNG().Time(5))
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := m.Peek(a); got != procs*iters {
				t.Fatalf("counter = %d, want %d", got, procs*iters)
			}
		})
	}
}

func TestBusCoherenceTrafficAccounting(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, Topo: topo.Bus})
	a := m.AllocShared(1)
	flag := m.AllocShared(1)
	bodies := []func(p *Proc){
		func(p *Proc) {
			p.Store(a, 7)    // miss: 1 txn (exclusive)
			p.Store(a, 8)    // hit: owner writes again, 0 txns
			p.Store(flag, 1) // miss: 1 txn
			p.SpinUntilEq(flag, 2)
			p.Load(a) // P1 wrote a meanwhile -> our copy invalid -> miss
		},
		func(p *Proc) {
			p.SpinUntilEq(flag, 1)
			p.Load(a)     // miss: downgrade P0 to shared
			p.Load(a)     // hit
			p.Store(a, 9) // upgrade: 1 txn, invalidates P0
			p.Store(flag, 2)
		},
	}
	if err := m.RunEach(bodies); err != nil {
		t.Fatalf("RunEach: %v", err)
	}
	st := m.Stats()
	if st.BusTxns == 0 {
		t.Fatal("no bus transactions recorded")
	}
	// P0: store-miss(a) + store(flag) + spin first-load(flag) + invalidated
	// re-reads. The exact count depends on spin wakeups, but the hit cases
	// must not have generated traffic: bound the total.
	if st.BusTxns > 12 {
		t.Fatalf("bus transactions = %d, expected <= 12 (hits charged as misses?)", st.BusTxns)
	}
	if m.Peek(a) != 9 {
		t.Fatalf("final a = %d, want 9", m.Peek(a))
	}
}

func TestBusReadHitAfterRead(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1, Topo: topo.Bus})
	a := m.AllocShared(1)
	var txnsAfterFirst, txnsAfterSecond uint64
	err := m.Run(func(p *Proc) {
		p.Load(a)
		txnsAfterFirst = p.stats.BusTxns
		p.Load(a)
		txnsAfterSecond = p.stats.BusTxns
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if txnsAfterFirst != 1 {
		t.Fatalf("first load caused %d txns, want 1 (cold miss)", txnsAfterFirst)
	}
	if txnsAfterSecond != 1 {
		t.Fatalf("second load caused %d total txns, want 1 (hit)", txnsAfterSecond)
	}
}

func TestNUMARemoteRefAccounting(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 4, Topo: topo.NUMA})
	local := m.AllocLocal(0, 1)
	bodies := make([]func(p *Proc), 4)
	bodies[0] = func(p *Proc) {
		p.Store(local, 1) // local: no remote ref
		p.Load(local)
	}
	for i := 1; i < 4; i++ {
		bodies[i] = func(p *Proc) {
			p.Load(local) // remote: 1 remote ref each
		}
	}
	if err := m.RunEach(bodies); err != nil {
		t.Fatalf("RunEach: %v", err)
	}
	st := m.Stats()
	if st.PerProc[0].RemoteRefs != 0 {
		t.Fatalf("P0 made %d remote refs to its own module", st.PerProc[0].RemoteRefs)
	}
	if st.RemoteRefs != 3 {
		t.Fatalf("total remote refs = %d, want 3", st.RemoteRefs)
	}
}

func TestNUMARemoteCostsMore(t *testing.T) {
	mLocal := newTestMachine(t, Config{Procs: 2, Topo: topo.NUMA})
	aLocal := mLocal.AllocLocal(0, 1)
	var localElapsed sim.Time
	err := mLocal.RunEach([]func(p *Proc){
		func(p *Proc) {
			start := p.Now()
			for i := 0; i < 100; i++ {
				p.Load(aLocal)
			}
			localElapsed = p.Now() - start
		},
		func(p *Proc) {},
	})
	if err != nil {
		t.Fatalf("Run local: %v", err)
	}

	mRemote := newTestMachine(t, Config{Procs: 2, Topo: topo.NUMA})
	aRemote := mRemote.AllocLocal(1, 1)
	var remoteElapsed sim.Time
	err = mRemote.RunEach([]func(p *Proc){
		func(p *Proc) {
			start := p.Now()
			for i := 0; i < 100; i++ {
				p.Load(aRemote)
			}
			remoteElapsed = p.Now() - start
		},
		func(p *Proc) {},
	})
	if err != nil {
		t.Fatalf("Run remote: %v", err)
	}
	if remoteElapsed <= localElapsed*2 {
		t.Fatalf("remote loads (%d cycles) not clearly dearer than local (%d)", remoteElapsed, localElapsed)
	}
}

func TestSpinUntilWakesOnStore(t *testing.T) {
	for _, model := range []topo.Topology{topo.Ideal, topo.Bus, topo.NUMA} {
		t.Run(model.Name(), func(t *testing.T) {
			m := newTestMachine(t, Config{Procs: 2, Topo: model})
			flag := m.AllocShared(1)
			var observed Word
			err := m.RunEach([]func(p *Proc){
				func(p *Proc) {
					observed = p.SpinUntilEq(flag, 42)
				},
				func(p *Proc) {
					p.Delay(500)
					p.Store(flag, 42)
				},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if observed != 42 {
				t.Fatalf("SpinUntil returned %d, want 42", observed)
			}
		})
	}
}

func TestSpinUntilAlreadySatisfied(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1, Topo: topo.Bus})
	flag := m.AllocShared(1)
	m.Poke(flag, 5)
	err := m.Run(func(p *Proc) {
		if v := p.SpinUntilEq(flag, 5); v != 5 {
			t.Errorf("SpinUntil = %d, want 5", v)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, Topo: topo.Bus})
	flag := m.AllocShared(1)
	err := m.RunEach([]func(p *Proc){
		func(p *Proc) { p.SpinUntilEq(flag, 1) }, // never satisfied
		func(p *Proc) {},
	})
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error %q does not mention deadlock", err)
	}
	if !strings.Contains(err.Error(), "P0") {
		t.Fatalf("error %q does not name the blocked processor", err)
	}
}

// TestLivelockStepLimit pins where the step limit trips for programs
// that can never finish: a Delay loop, and a lone raw test&set spinner
// on a word poked to 1, on Bus, NUMA and Cluster at P=1 and at P=2
// (P1 delays, then exits), with the word local to the spinner or, on
// the module machines, remote to it. A lone spinner's probes retire inline
// whenever no event is pending, so the budget trips on an inline
// charge. The error text and the Stats are literals recorded when a
// closed form charged those inline runs; per-probe execution must
// reproduce them exactly.
func TestLivelockStepLimit(t *testing.T) {
	spin := func(p *Proc, a Addr) {
		if p.ID() == 0 {
			p.SpinTAS(a, Backoff{})
			return
		}
		p.Delay(1000)
	}
	delayLoop := func(p *Proc, _ Addr) {
		for {
			p.Delay(1)
		}
	}
	// lone is the Stats of a P=1 spinner; pair those of a P=2 spinner,
	// whose P1 issues no memory operation.
	lone := func(cycles sim.Time, ps ProcStats) Stats {
		return Stats{Cycles: cycles, Events: 3, InlineOps: 19998,
			SpinDispatches: 1, GoroutineDispatches: 1, Handoffs: 1, RMWs: ps.RMWs,
			BusTxns: ps.BusTxns, RemoteRefs: ps.RemoteRefs, PerProc: []ProcStats{ps}}
	}
	pair := func(cycles sim.Time, ps ProcStats) Stats {
		return Stats{Cycles: cycles, Events: 7, InlineOps: 19994,
			SpinDispatches: 3, GoroutineDispatches: 3, Handoffs: 2, RMWs: ps.RMWs,
			BusTxns: ps.BusTxns, RemoteRefs: ps.RemoteRefs, PerProc: []ProcStats{ps, {}}}
	}
	const limit = "sim: event step limit exceeded (livelock?) "
	for _, c := range []struct {
		name     string
		tp       topo.Topology
		procs    int
		maxSteps uint64
		word     Addr // offset into the two allocated shared words
		body     func(p *Proc, a Addr)
		err      string
		want     Stats
	}{
		{"delay/numa/P1", topo.NUMA, 1, 5000, 0, delayLoop, limit + "after 3 events at t=5000",
			Stats{Cycles: 5000, Events: 3, InlineOps: 4998, GoroutineDispatches: 2, Handoffs: 1, PerProc: []ProcStats{{}}}},
		{"tas/bus/P1", topo.Bus, 1, 20000, 0, spin, limit + "after 3 events at t=20019",
			lone(20019, ProcStats{RMWs: 20000, BusTxns: 1})},
		{"tas/bus/P2", topo.Bus, 2, 20000, 0, spin, limit + "after 7 events at t=20017",
			pair(20017, ProcStats{RMWs: 19998, BusTxns: 1})},
		{"tas/numa/P1", topo.NUMA, 1, 20000, 0, spin, limit + "after 3 events at t=40000",
			lone(40000, ProcStats{RMWs: 20000})},
		{"tas/numa/P2", topo.NUMA, 2, 20000, 0, spin, limit + "after 7 events at t=39996",
			pair(39996, ProcStats{RMWs: 19998})},
		{"tas/numa/P2/remote", topo.NUMA, 2, 20000, 1, spin, limit + "after 7 events at t=279972",
			pair(279972, ProcStats{RMWs: 19998, RemoteRefs: 19998})},
		{"tas/cluster/P1", topo.Cluster, 1, 20000, 0, spin, limit + "after 3 events at t=40000",
			lone(40000, ProcStats{RMWs: 20000})},
		{"tas/cluster/P2", topo.Cluster, 2, 20000, 0, spin, limit + "after 7 events at t=39996",
			pair(39996, ProcStats{RMWs: 19998})},
		{"tas/cluster/P2/remote", topo.Cluster, 2, 20000, 1, spin, limit + "after 7 events at t=119988",
			pair(119988, ProcStats{RMWs: 19998, RemoteRefs: 19998})},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newTestMachine(t, Config{Procs: c.procs, Topo: c.tp, MaxSteps: c.maxSteps})
			a := m.AllocShared(2) + c.word
			m.Poke(a, 1)
			err := m.Run(func(p *Proc) { c.body(p, a) })
			if err == nil || err.Error() != c.err {
				t.Fatalf("Run = %v, want %q", err, c.err)
			}
			if got := m.Stats(); !reflect.DeepEqual(got, c.want) {
				t.Errorf("Stats =\n %+v\nwant\n %+v", got, c.want)
			}
		})
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		m, err := New(Config{Procs: 8, Topo: topo.Bus, Seed: 99})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		lock := m.AllocShared(1)
		count := m.AllocShared(1)
		err = m.Run(func(p *Proc) {
			for i := 0; i < 50; i++ {
				for p.TestAndSet(lock) != 0 {
					p.Delay(p.RNG().Time(20) + 1)
				}
				v := p.Load(count)
				p.Delay(3)
				p.Store(count, v+1)
				p.Store(lock, 0)
				p.Delay(p.RNG().Time(10))
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := m.Peek(count); got != 8*50 {
			t.Fatalf("mutual exclusion violated: count = %d, want %d", got, 8*50)
		}
		return m.Stats()
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.BusTxns != b.BusTxns || a.Events != b.Events {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	for i := range a.PerProc {
		if a.PerProc[i] != b.PerProc[i] {
			t.Fatalf("replay diverged at P%d: %+v vs %+v", i, a.PerProc[i], b.PerProc[i])
		}
	}
}

func TestAllocSharedBounds(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1, SharedWords: 8})
	m.AllocShared(8)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	m.AllocShared(1)
}

func TestAllocLocalBounds(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, LocalWords: 4})
	a0 := m.AllocLocal(0, 4)
	a1 := m.AllocLocal(1, 4)
	if m.home(a0) != 0 || m.home(a1) != 1 {
		t.Fatalf("local homes wrong: home(a0)=%d home(a1)=%d", m.home(a0), m.home(a1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("local over-allocation did not panic")
		}
	}()
	m.AllocLocal(0, 1)
}

func TestSharedHomeInterleaved(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 4, Topo: topo.NUMA})
	a := m.AllocShared(8)
	seen := map[int]bool{}
	for i := Addr(0); i < 8; i++ {
		seen[m.home(a+i)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("shared region maps to %d modules, want 4 (interleaving broken)", len(seen))
	}
}

func TestPtrWordRoundTrip(t *testing.T) {
	f := func(raw int32) bool {
		if raw < 0 {
			raw = -raw
		}
		a := Addr(raw % (1 << 20))
		return WordPtr(PtrWord(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if WordPtr(0) != NilAddr {
		t.Fatal("WordPtr(0) != NilAddr")
	}
}

func TestPokeAfterRunPanics(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1})
	a := m.AllocShared(1)
	if err := m.Run(func(p *Proc) {}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Poke after Run did not panic")
		}
	}()
	m.Poke(a, 1)
}

func TestRunTwiceFails(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1})
	if err := m.Run(func(p *Proc) {}); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := m.Run(func(p *Proc) {}); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestRunEachLengthMismatch(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2})
	if err := m.RunEach([]func(p *Proc){func(p *Proc) {}}); err == nil {
		t.Fatal("RunEach with wrong body count did not fail")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Procs: 65, Topo: topo.Bus}); err == nil {
		t.Fatal("bus with 65 procs accepted")
	}
	if _, err := New(Config{Procs: 2000, Topo: topo.NUMA}); err == nil {
		t.Fatal("2000 procs accepted")
	}
	if _, err := New(Config{Procs: -1}); err == nil {
		t.Fatal("negative procs accepted")
	}
}

func TestTrafficForModel(t *testing.T) {
	s := Stats{BusTxns: 10, RemoteRefs: 20, Loads: 1, Stores: 2, RMWs: 3}
	if s.TrafficFor(topo.Bus) != 10 {
		t.Fatal("TrafficFor(topo.Bus)")
	}
	if s.TrafficFor(topo.NUMA) != 20 {
		t.Fatal("TrafficFor(topo.NUMA)")
	}
	if s.TrafficFor(topo.Ideal) != 6 {
		t.Fatal("TrafficFor(topo.Ideal)")
	}
}

func TestDelayAdvancesClock(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1, Topo: topo.Ideal})
	var before, after sim.Time
	err := m.Run(func(p *Proc) {
		before = p.Now()
		p.Delay(100)
		after = p.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after-before != 100 {
		t.Fatalf("Delay(100) advanced %d cycles", after-before)
	}
}

// Sequential consistency oracle: a random program of loads/stores per
// processor on disjoint addresses must read back exactly what it wrote.
func TestMemoryPerProcOracle(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		ops := int(opsRaw%64) + 1
		m, err := New(Config{Procs: 4, Topo: topo.Bus, Seed: seed | 1})
		if err != nil {
			return false
		}
		base := m.AllocShared(4 * 8)
		ok := true
		err = m.Run(func(p *Proc) {
			mine := base + Addr(p.ID()*8)
			shadow := make([]Word, 8)
			rng := p.RNG()
			for i := 0; i < ops; i++ {
				slot := Addr(rng.Intn(8))
				if rng.Intn(2) == 0 {
					v := Word(rng.Uint64())
					p.Store(mine+slot, v)
					shadow[slot] = v
				} else {
					if got := p.Load(mine + slot); got != shadow[slot] {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
