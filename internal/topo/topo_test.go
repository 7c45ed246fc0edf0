package topo

import (
	"testing"

	"repro/internal/sim"
)

var testTiming = Timing{RemoteMem: 12, PollInterval: 36}

func TestRegistryCanonicalOrder(t *testing.T) {
	want := []string{"ideal", "bus", "numa", "cluster"}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("registry names = %v, want at least %v", got, want)
	}
	for i, n := range want {
		if got[i] != n {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], n)
		}
	}
	for _, n := range want {
		tp, ok := ByName(n)
		if !ok {
			t.Fatalf("topology %q not registered", n)
		}
		if tp.Name() != n {
			t.Errorf("ByName(%q).Name() = %q", n, tp.Name())
		}
	}
}

// TestCanonicalShapes pins the exact cost structure the hardcoded
// models had: these numbers feed the bit-identity guarantee.
func TestCanonicalShapes(t *testing.T) {
	if Bus.Discipline() != SnoopingBus || Bus.MaxProcs() != 64 || Bus.Discipline().Unit() != "bus txns" {
		t.Error("bus shape wrong")
	}
	if NUMA.Discipline() != Modules || NUMA.MaxProcs() != 0 || NUMA.Discipline().Unit() != "remote refs" {
		t.Error("numa shape wrong")
	}
	if Ideal.Discipline() != Uniform || Ideal.Discipline().Unit() != "ops" {
		t.Error("ideal shape wrong")
	}
	// NUMA: uniform remote traversal of RemoteMem; local free.
	if c := NUMA.Traversal(3, 3, testTiming); c != 0 {
		t.Errorf("numa local traversal = %d", c)
	}
	if c := NUMA.Traversal(3, 5, testTiming); c != testTiming.RemoteMem {
		t.Errorf("numa remote traversal = %d, want %d", c, testTiming.RemoteMem)
	}
	// One distance class: every remote hop costs exactly RemoteMem.
	for p := 0; p < 16; p++ {
		for mod := 0; mod < 16; mod++ {
			if d := NUMA.Traversal(p, mod, testTiming); p != mod && d != testTiming.RemoteMem {
				t.Errorf("numa Traversal(%d,%d) = %d, want %d", p, mod, d, testTiming.RemoteMem)
			}
		}
	}
	// Flat topologies: interleaved shared heap, per-processor groups.
	for _, tp := range []Topology{Bus, NUMA, Ideal} {
		if tp.HomeModule(35, 16) != 35%16 {
			t.Errorf("%s module mapping wrong", tp.Name())
		}
		if tp.Group(7, 16) != 7 || tp.GroupHome(7, 16) != 7 {
			t.Errorf("%s group structure not per-processor", tp.Name())
		}
		if sp := tp.PollSpacing(0, 9, testTiming); sp != testTiming.PollInterval {
			t.Errorf("%s poll spacing = %d", tp.Name(), sp)
		}
	}
}

func TestClusterShape(t *testing.T) {
	c := Cluster
	if c.Discipline() != Modules || c.Discipline().Unit() != "remote refs" || c.MaxProcs() != 0 {
		t.Fatal("cluster shape wrong")
	}
	// Span-4 grouping.
	if c.Group(0, 16) != 0 || c.Group(3, 16) != 0 || c.Group(4, 16) != 1 || c.Group(15, 16) != 3 {
		t.Error("cluster grouping wrong")
	}
	if c.GroupHome(2, 16) != 8 {
		t.Errorf("cluster GroupHome(2) = %d, want 8", c.GroupHome(2, 16))
	}
	if Groups(c, 16) != 4 || Groups(c, 2) != 1 || Groups(NUMA, 8) != 8 {
		t.Error("Groups helper wrong")
	}
	// Distance pricing: free at home, RemoteMem/3 inside the cluster,
	// 2*RemoteMem across clusters.
	if d := c.Traversal(1, 1, testTiming); d != 0 {
		t.Errorf("home traversal = %d", d)
	}
	if d := c.Traversal(1, 3, testTiming); d != testTiming.RemoteMem/3 {
		t.Errorf("intra-cluster traversal = %d, want %d", d, testTiming.RemoteMem/3)
	}
	if d := c.Traversal(1, 4, testTiming); d != 2*testTiming.RemoteMem {
		t.Errorf("inter-cluster traversal = %d, want %d", d, 2*testTiming.RemoteMem)
	}
	// Distance-scaled polling.
	if sp := c.PollSpacing(1, 3, testTiming); sp != testTiming.PollInterval {
		t.Errorf("intra-cluster poll spacing = %d", sp)
	}
	if sp := c.PollSpacing(1, 12, testTiming); sp != 2*testTiming.PollInterval {
		t.Errorf("inter-cluster poll spacing = %d", sp)
	}
	// Two distance classes: every remote hop is an intra-cluster
	// RemoteMem/3 or an inter-cluster 2*RemoteMem.
	for p := 0; p < 16; p++ {
		for mod := 0; mod < 16; mod++ {
			if p == mod {
				continue
			}
			if d := c.Traversal(p, mod, testTiming); d != testTiming.RemoteMem/3 && d != 2*testTiming.RemoteMem {
				t.Errorf("Traversal(%d,%d) = %d, want %d or %d", p, mod, d, testTiming.RemoteMem/3, 2*testTiming.RemoteMem)
			}
		}
	}
}

func TestNewClusterSpanValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("span 0 accepted")
		}
	}()
	NewCluster("bad", 0)
}

// TestTopologyComparable pins that topology values work as
// configuration keys: equal instances compare equal, distinct ones
// do not (machine pooling and sweep cells rely on this).
func TestTopologyComparable(t *testing.T) {
	if Bus != Bus || NUMA == Bus {
		t.Fatal("canonical instances not comparable as expected")
	}
	if NewCluster("cluster", 4) != Cluster {
		t.Fatal("equal cluster values compare unequal")
	}
	if NewCluster("cluster", 8) == Cluster {
		t.Fatal("different spans compare equal")
	}
	var tm Timing
	_ = tm
	var zero sim.Time
	if zero != 0 {
		t.Fatal("sim.Time zero")
	}
}
