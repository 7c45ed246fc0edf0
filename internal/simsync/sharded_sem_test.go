package simsync

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// The sharded semaphore must enforce the permit bound on every
// topology: with N permits, at most N processors are ever inside the
// guarded section at once, and no permit is lost.
func TestShardedSemaphoreBound(t *testing.T) {
	for _, tp := range toposUnderTest() {
		tp := tp
		t.Run(tp.Name(), func(t *testing.T) {
			const procs, permits, iters = 8, 3, 20
			m, err := machine.New(machine.Config{Procs: procs, Topo: tp, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			sem := NewShardedSemaphore(m, permits)
			inside, worst := 0, 0
			err = m.Run(func(p *machine.Proc) {
				for i := 0; i < iters; i++ {
					sem.P(p)
					inside++
					if inside > worst {
						worst = inside
					}
					p.Delay(p.RNG().Time(40) + 1)
					inside--
					sem.V(p)
					p.Delay(p.RNG().Time(20))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if worst > permits {
				t.Fatalf("%d processors held permits concurrently, bound is %d", worst, permits)
			}
			if worst < permits {
				t.Fatalf("peak concurrency %d never reached the bound %d; workload too weak", worst, permits)
			}
		})
	}
}

// The producer/consumer battery must validate sem-sharded end to end
// (conservation of items) on the hierarchical machine too.
func TestShardedSemaphoreProducerConsumer(t *testing.T) {
	info, ok := SemaphoreByName("sem-sharded")
	if !ok {
		t.Fatal("sem-sharded not registered")
	}
	for _, tp := range []topo.Topology{topo.Bus, topo.NUMA, topo.Cluster} {
		res, err := RunProducerConsumerIn(nil,
			machine.Config{Procs: 8, Topo: tp, Seed: 3},
			info, PCOpts{Items: 60, Capacity: 4, Work: 20})
		if err != nil {
			t.Fatalf("%s: %v", tp.Name(), err)
		}
		if res.Cycles == 0 {
			t.Fatalf("%s: no simulated work", tp.Name())
		}
	}
}

// Placement proof for the group-striped counter on the cluster
// machine: each stripe lives on its cluster's home module, so of every
// cluster's span processors exactly one increments locally and the
// rest pay one intra-cluster remote reference — refs per increment is
// exactly (span-1)/span, and no increment crosses a cluster boundary
// (which would show up as extra cycles via the dearer traversal).
func TestShardedCounterClusterPlacement(t *testing.T) {
	info, ok := CounterByName("ctr-sharded")
	if !ok {
		t.Fatal("ctr-sharded not registered")
	}
	const procs, incs = 16, 30
	res, err := RunCounterIn(nil,
		machine.Config{Procs: procs, Topo: topo.Cluster, Seed: 9},
		info, CounterOpts{Incs: incs, Think: 20})
	if err != nil {
		t.Fatal(err)
	}
	// 4 clusters of 4: processors 0,4,8,12 increment locally; the other
	// 12 each pay exactly one remote reference per increment.
	wantRefs := uint64(12 * incs)
	if got := res.Stats.RemoteRefs; got != wantRefs {
		t.Fatalf("cluster-placed sharded counter made %d remote refs, want exactly %d", got, wantRefs)
	}
	for p, ps := range res.Stats.PerProc {
		wantLocal := p%4 == 0
		if wantLocal && ps.RemoteRefs != 0 {
			t.Errorf("P%d is a cluster home but made %d remote refs", p, ps.RemoteRefs)
		}
		if !wantLocal && ps.RemoteRefs != incs {
			t.Errorf("P%d made %d remote refs, want %d (one intra-cluster hop per inc)", p, ps.RemoteRefs, incs)
		}
	}
	// The same counter run on flat NUMA is entirely local.
	resFlat, err := RunCounterIn(nil,
		machine.Config{Procs: procs, Topo: topo.NUMA, Seed: 9},
		info, CounterOpts{Incs: incs, Think: 20})
	if err != nil {
		t.Fatal(err)
	}
	if resFlat.Stats.RemoteRefs != 0 {
		t.Fatalf("flat-placed sharded counter made %d remote refs, want 0", resFlat.Stats.RemoteRefs)
	}
}
