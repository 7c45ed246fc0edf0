package simsync

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Both counters must produce exact totals and unique pre-increment
// values (RunCounterIn enforces both) on every model.
func TestCountersCorrect(t *testing.T) {
	for _, info := range Counters() {
		for _, model := range []topo.Topology{topo.Ideal, topo.Bus, topo.NUMA} {
			for _, procs := range []int{1, 2, 7, 16} {
				info, model, procs := info, model, procs
				name := info.Name + "/" + model.Name() + "/" + itoa(procs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					res, err := RunCounterIn(nil,
						machine.Config{Procs: procs, Topo: model, Seed: 19},
						info,
						CounterOpts{Incs: 40, Think: 25},
					)
					if err != nil {
						t.Fatal(err)
					}
					if res.Incs != uint64(procs)*40 {
						t.Fatalf("incs = %d", res.Incs)
					}
				})
			}
		}
	}
}

// Hot-spot relief: under heavy contention on NUMA, combining must
// reduce traffic to the counter's home module versus plain fetch&add.
func TestCombiningRelievesHotSpot(t *testing.T) {
	run := func(name string) float64 {
		info, ok := CounterByName(name)
		if !ok {
			t.Fatalf("unknown counter %q", name)
		}
		res, err := RunCounterIn(nil,
			machine.Config{Procs: 32, Topo: topo.NUMA, Seed: 5},
			info,
			CounterOpts{Incs: 40, Think: 0}, // no think: maximum pressure
		)
		if err != nil {
			t.Fatal(err)
		}
		return res.CyclesPerInc
	}
	fa, comb := run("ctr-fa"), run("ctr-combine")
	if comb >= fa {
		t.Fatalf("combining (%.1f cyc/inc) not faster than fetch&add (%.1f) under hot-spot pressure", comb, fa)
	}
}

// With a single processor combining never matches; the timeout path
// must still deliver every increment.
func TestCombiningSingleProcTimeoutPath(t *testing.T) {
	info, _ := CounterByName("ctr-combine")
	res, err := RunCounterIn(nil,
		machine.Config{Procs: 1, Topo: topo.Bus, Seed: 1},
		info,
		CounterOpts{Incs: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incs != 20 {
		t.Fatalf("incs = %d", res.Incs)
	}
}

func TestCounterByNameUnknown(t *testing.T) {
	if _, ok := CounterByName("bogus"); ok {
		t.Fatal("bogus counter found")
	}
}

// Property: arbitrary processor counts and paces never break the
// counter's exactness (RunCounterIn fails on duplicates or lost counts).
func TestCombiningCounterProperty(t *testing.T) {
	info, _ := CounterByName("ctr-combine")
	f := func(seed uint64, procsRaw, thinkRaw uint8) bool {
		procs := int(procsRaw%12) + 1
		think := int64(thinkRaw % 60)
		_, err := RunCounterIn(nil,
			machine.Config{Procs: procs, Topo: topo.NUMA, Seed: seed | 1},
			info,
			CounterOpts{Incs: 15, Think: sim.Time(think)},
		)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterDeterministicReplay(t *testing.T) {
	run := func() CounterResult {
		info, _ := CounterByName("ctr-combine")
		res, err := RunCounterIn(nil,
			machine.Config{Procs: 9, Topo: topo.Bus, Seed: 77},
			info, CounterOpts{Incs: 25, Think: 10},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Stats.BusTxns != b.Stats.BusTxns {
		t.Fatalf("replay diverged")
	}
}
