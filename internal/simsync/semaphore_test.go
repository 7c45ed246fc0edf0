package simsync

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// Both semaphores must conserve items through a bounded buffer on every
// model, for odd processor counts and tiny buffers too.
func TestSemaphoresProducerConsumer(t *testing.T) {
	for _, info := range Semaphores() {
		for _, model := range []topo.Topology{topo.Ideal, topo.Bus, topo.NUMA} {
			for _, procs := range []int{2, 5, 8} {
				info, model, procs := info, model, procs
				name := info.Name + "/" + model.Name() + "/" + itoa(procs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					res, err := RunProducerConsumerIn(nil,
						machine.Config{Procs: procs, Topo: model, Seed: 31},
						info,
						PCOpts{Items: 60, Capacity: 4, Work: 15},
					)
					if err != nil {
						t.Fatal(err)
					}
					if res.CyclesPerItem <= 0 {
						t.Fatalf("bad cycles/item: %v", res.CyclesPerItem)
					}
				})
			}
		}
	}
}

func TestSemaphoreCapacityOne(t *testing.T) {
	for _, info := range Semaphores() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			_, err := RunProducerConsumerIn(nil,
				machine.Config{Procs: 6, Topo: topo.Bus, Seed: 7},
				info,
				PCOpts{Items: 40, Capacity: 1},
			)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSemaphoreNeedsTwoProcs(t *testing.T) {
	info, _ := SemaphoreByName("sem-qsync")
	_, err := RunProducerConsumerIn(nil,
		machine.Config{Procs: 1, Topo: topo.Bus},
		info, PCOpts{Items: 5, Capacity: 2},
	)
	if err == nil {
		t.Fatal("single-processor producer/consumer accepted")
	}
}

func TestSemaphoreByNameUnknown(t *testing.T) {
	if _, ok := SemaphoreByName("bogus"); ok {
		t.Fatal("bogus semaphore found")
	}
}

// The mechanism's semaphore must generate bounded remote traffic on
// NUMA (blocked waiters spin locally); the central one polls the shared
// counter remotely.
func TestSemaphoreTrafficNUMA(t *testing.T) {
	run := func(name string) float64 {
		info, _ := SemaphoreByName(name)
		res, err := RunProducerConsumerIn(nil,
			machine.Config{Procs: 8, Topo: topo.NUMA, Seed: 3},
			info,
			// Zero work: consumers block hard on an empty buffer, which
			// is where blocked-waiter traffic shows up.
			PCOpts{Items: 80, Capacity: 2, Work: 0},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res.TrafficPerItem
	}
	central, qsync := run("sem-central"), run("sem-qsync")
	if qsync >= central {
		t.Fatalf("sem-qsync traffic %.1f not below sem-central %.1f on NUMA", qsync, central)
	}
}

func TestSemaphoreDeterministicReplay(t *testing.T) {
	run := func() PCResult {
		info, _ := SemaphoreByName("sem-qsync")
		res, err := RunProducerConsumerIn(nil,
			machine.Config{Procs: 6, Topo: topo.NUMA, Seed: 11},
			info, PCOpts{Items: 50, Capacity: 3, Work: 10},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Stats.RemoteRefs != b.Stats.RemoteRefs {
		t.Fatalf("replay diverged: %v/%v", a.Cycles, b.Cycles)
	}
}
