package machine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// On NUMA, spinning on a remote word must generate polling traffic (the
// Butterfly pathology), while spinning on a local word must not.
func TestNUMARemoteSpinPolls(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, Topo: topo.NUMA})
	remoteFlag := m.AllocLocal(1, 1) // remote to P0, local to P1
	err := m.RunEach([]func(p *Proc){
		func(p *Proc) {
			p.SpinUntilEq(remoteFlag, 1)
		},
		func(p *Proc) {
			p.Delay(3000)
			p.Store(remoteFlag, 1)
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	refs := m.Stats().PerProc[0].RemoteRefs
	// 3000 cycles of waiting at a ~36-cycle poll interval: tens of polls.
	if refs < 10 {
		t.Fatalf("remote spin made only %d remote refs; polling model broken", refs)
	}
}

func TestNUMALocalSpinIsQuiet(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, Topo: topo.NUMA})
	localFlag := m.AllocLocal(0, 1) // local to the spinner
	err := m.RunEach([]func(p *Proc){
		func(p *Proc) {
			p.SpinUntilEq(localFlag, 1)
		},
		func(p *Proc) {
			p.Delay(3000)
			p.Store(localFlag, 1) // one remote store
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if refs := m.Stats().PerProc[0].RemoteRefs; refs != 0 {
		t.Fatalf("local spinner made %d remote refs; local spin should be free of network traffic", refs)
	}
	if refs := m.Stats().PerProc[1].RemoteRefs; refs != 1 {
		t.Fatalf("writer made %d remote refs, want exactly 1", refs)
	}
}

// A write-upgrade (shared copy -> exclusive) must cost a bus transaction
// even though the data is already cached.
func TestBusWriteUpgradeCostsTransaction(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1, Topo: topo.Bus})
	a := m.AllocShared(1)
	var afterLoad, afterStore uint64
	err := m.Run(func(p *Proc) {
		p.Load(a) // cold miss: 1 txn, shared
		afterLoad = p.stats.BusTxns
		p.Store(a, 1) // upgrade: 1 more txn
		afterStore = p.stats.BusTxns
		p.Store(a, 2) // exclusive hit: no txn
		if p.stats.BusTxns != afterStore {
			t.Errorf("exclusive write hit generated a transaction")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if afterLoad != 1 || afterStore != 2 {
		t.Fatalf("txns after load=%d after store=%d, want 1 and 2", afterLoad, afterStore)
	}
}

// Failed CAS still costs a transaction, like a real locked operation.
func TestFailedCASCharged(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 1, Topo: topo.Bus})
	a := m.AllocShared(1)
	err := m.Run(func(p *Proc) {
		before := p.stats.BusTxns
		if p.CompareAndSwap(a, 99, 1) {
			t.Error("CAS with wrong expectation succeeded")
		}
		if p.stats.BusTxns == before {
			t.Error("failed CAS cost no bus transaction")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Many watchers on distinct addresses must each wake only for their own
// address's writes.
func TestWatchersAreAddressSpecific(t *testing.T) {
	const procs = 5
	m := newTestMachine(t, Config{Procs: procs, Topo: topo.Bus})
	flags := m.AllocShared(procs)
	wakeOrder := make([]int, 0, procs-1)
	bodies := make([]func(p *Proc), procs)
	for i := 1; i < procs; i++ {
		i := i
		bodies[i] = func(p *Proc) {
			p.SpinUntilEq(flags+Addr(i), 1)
			wakeOrder = append(wakeOrder, i)
		}
	}
	bodies[0] = func(p *Proc) {
		// Release in reverse order with gaps; wake order must follow
		// the store order, not the watch-registration order.
		for i := procs - 1; i >= 1; i-- {
			p.Delay(200)
			p.Store(flags+Addr(i), 1)
		}
	}
	if err := m.RunEach(bodies); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for k, want := 0, procs-1; k < len(wakeOrder); k, want = k+1, want-1 {
		if wakeOrder[k] != want {
			t.Fatalf("wake order %v; writes went %d..1", wakeOrder, procs-1)
		}
	}
}

// Two processors spinning on the same word both wake from one write.
func TestWatcherBroadcast(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 3, Topo: topo.Bus})
	flag := m.AllocShared(1)
	woke := 0
	bodies := []func(p *Proc){
		func(p *Proc) { p.SpinUntilEq(flag, 7); woke++ },
		func(p *Proc) { p.SpinUntilEq(flag, 7); woke++ },
		func(p *Proc) { p.Delay(100); p.Store(flag, 7) },
	}
	if err := m.RunEach(bodies); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 2 {
		t.Fatalf("%d spinners woke, want 2", woke)
	}
}

// A spurious wake (write that does not satisfy the predicate) must
// re-arm the watcher rather than returning or losing the processor.
func TestWatcherSpuriousWakeRearms(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, Topo: topo.Bus})
	flag := m.AllocShared(1)
	var got Word
	err := m.RunEach([]func(p *Proc){
		func(p *Proc) { got = p.SpinUntilEq(flag, 3) },
		func(p *Proc) {
			p.Delay(50)
			p.Store(flag, 1) // wrong value: spurious
			p.Delay(50)
			p.Store(flag, 2) // still wrong
			p.Delay(50)
			p.Store(flag, 3)
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 3 {
		t.Fatalf("SpinUntil returned %d, want 3", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Procs != 1 || c.Topo != topo.Ideal || c.BusLatency != 20 || c.RemoteMem != 12 ||
		c.SharedWords != 1<<12 || c.LocalWords != 1<<8 || c.Seed != 1 ||
		c.MaxSteps != 0 || c.NoSpinWindows || c.Faults != nil {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Procs: 7, BusLatency: 5}.Defaults()
	if c2.Procs != 7 || c2.BusLatency != 5 {
		t.Fatalf("explicit values overwritten: %+v", c2)
	}
}

// TestMachineFootprint bounds what New allocates for the largest
// default-sized machine, a 1,024-processor cluster. Every heap word
// costs 16 bytes or more whether a cell touches it or not, so defaults
// grown back to 2^16 shared and 2^12 local words (66 MiB here) fail
// it. Not parallel: TotalAlloc counts the whole process.
func TestMachineFootprint(t *testing.T) {
	const budget = 8 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := New(Config{Procs: 1024, Topo: topo.Cluster})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New(cluster P=1024) allocates %.1f MiB", float64(got)/(1<<20))
	if got >= budget {
		t.Fatalf("over the %d MiB budget", budget>>20)
	}
}

func TestTopologyNames(t *testing.T) {
	if topo.Ideal.Name() != "ideal" || topo.Bus.Name() != "bus" || topo.NUMA.Name() != "numa" {
		t.Fatal("canonical topology names broken")
	}
	if fmt.Sprint(topo.Bus) != "bus" {
		t.Fatal("topologies should format as their names")
	}
}

// The bus serializes: two simultaneous misses cannot both finish in one
// bus latency.
func TestBusSerializesTransactions(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, Topo: topo.Bus})
	a := m.AllocShared(2)
	var end0, end1 sim.Time
	err := m.RunEach([]func(p *Proc){
		func(p *Proc) { p.Load(a); end0 = p.Now() },
		func(p *Proc) { p.Load(a + 1); end1 = p.Now() },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	first, second := end0, end1
	if second < first {
		first, second = second, first
	}
	if first != 20 || second != 40 {
		t.Fatalf("bus misses finished at %d and %d, want 20 and 40 (serialized)", first, second)
	}
}

// NUMA module ports serialize access to one module; accesses to
// different modules proceed in parallel.
func TestNUMAModuleContention(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 3, Topo: topo.NUMA})
	hot := m.AllocLocal(2, 1) // both P0 and P1 hit module 2
	var end0, end1 sim.Time
	err := m.RunEach([]func(p *Proc){
		func(p *Proc) { p.Load(hot); end0 = p.Now() },
		func(p *Proc) { p.Load(hot); end1 = p.Now() },
		func(p *Proc) {},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d := end1 - end0
	if d < 0 {
		d = -d
	}
	// Remote service time is localMem+RemoteMem (14); the second
	// requester queues behind the first for a full service slot.
	if d != 14 {
		t.Fatalf("module completions differ by %d, want 14 (port serialization)", d)
	}
}

// Alloc validation.
func TestAllocValidation(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2})
	for _, f := range []func(){
		func() { m.AllocShared(0) },
		func() { m.AllocShared(-1) },
		func() { m.AllocLocal(-1, 1) },
		func() { m.AllocLocal(2, 1) },
		func() { m.AllocLocal(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid allocation did not panic")
				}
			}()
			f()
		}()
	}
}

// Address bounds are enforced at access time, and a panic inside a
// simulated program surfaces as a Run error, not a process crash.
func TestAddressOutOfRangeBecomesRunError(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, SharedWords: 4, LocalWords: 4})
	err := m.RunEach([]func(p *Proc){
		func(p *Proc) {
			p.Load(Addr(4 + 2*4)) // one past the end
		},
		func(p *Proc) { p.Delay(10) },
	})
	if err == nil {
		t.Fatal("out-of-range access did not produce a Run error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "processor 0") {
		t.Fatalf("error %q should name the panicking processor", err)
	}
}

// A program panic with other processors still live must not wedge Run.
func TestProgramPanicDoesNotDeadlockRun(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 3})
	flag := m.AllocShared(1)
	err := m.RunEach([]func(p *Proc){
		func(p *Proc) { p.SpinUntilEq(flag, 1) }, // waits forever
		func(p *Proc) { panic("boom") },
		func(p *Proc) { p.Delay(100) },
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error %q should carry the panic value", err)
	}
}
