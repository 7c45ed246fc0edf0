package simsync

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Property: for arbitrary workload parameters, every lock preserves
// mutual exclusion and loses no updates — the safety checkers inside
// RunLockIn turn any violation into an error.
func TestLockSafetyProperty(t *testing.T) {
	for _, name := range []string{"qsync", "tas-bo", "gt"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			info := mustLock(t, name)
			f := func(seed uint64, procsRaw, csRaw, thinkRaw uint8) bool {
				procs := int(procsRaw%10) + 2
				cs := sim.Time(csRaw % 60)
				think := sim.Time(thinkRaw % 100)
				for _, model := range []topo.Topology{topo.Bus, topo.NUMA} {
					_, err := RunLockIn(nil,
						machine.Config{Procs: procs, Topo: model, Seed: seed | 1},
						info,
						LockOpts{Iters: 15, CS: cs, Think: think, CheckMutex: true},
					)
					if err != nil {
						t.Logf("params procs=%d cs=%d think=%d model=%s: %v", procs, cs, think, model, err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: barriers never release early for arbitrary parameters.
func TestBarrierSafetyProperty(t *testing.T) {
	for _, name := range []string{"qsync-tree", "dissemination"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			info, ok := BarrierByName(name)
			if !ok {
				t.Fatal("unknown barrier")
			}
			f := func(seed uint64, procsRaw, workRaw uint8) bool {
				procs := int(procsRaw%14) + 1
				work := sim.Time(workRaw % 200)
				_, err := RunBarrierIn(nil,
					machine.Config{Procs: procs, Topo: topo.NUMA, Seed: seed | 1},
					info,
					BarrierOpts{Episodes: 6, Work: work},
				)
				return err == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: the RW lock upholds exclusion for arbitrary mixes.
func TestRWSafetyProperty(t *testing.T) {
	info, _ := RWLockByName("rw-qsync")
	f := func(seed uint64, procsRaw, fracRaw uint8) bool {
		procs := int(procsRaw%8) + 2
		frac := float64(fracRaw%101) / 100
		_, err := RunRWIn(nil,
			machine.Config{Procs: procs, Topo: topo.Bus, Seed: seed | 1},
			info,
			RWOpts{Iters: 12, ReadFraction: frac, Work: 10, Think: 20},
		)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
