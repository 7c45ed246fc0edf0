package simsync

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// Every RW lock must uphold both exclusion invariants on every model
// across read fractions.
func TestRWLocksExclusion(t *testing.T) {
	for _, info := range RWLocks() {
		for _, model := range []topo.Topology{topo.Ideal, topo.Bus, topo.NUMA} {
			for _, frac := range []float64{0, 0.5, 0.9, 1} {
				info, model, frac := info, model, frac
				name := info.Name + "/" + model.Name() + "/" + fmtFrac(frac)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					res, err := RunRWIn(nil,
						machine.Config{Procs: 8, Topo: model, Seed: 13},
						info,
						RWOpts{Iters: 30, ReadFraction: frac, Work: 15, Think: 30},
					)
					if err != nil {
						t.Fatal(err)
					}
					if res.Reads+res.Writes != 8*30 {
						t.Fatalf("ops = %d+%d, want %d", res.Reads, res.Writes, 8*30)
					}
					if frac == 0 && res.Reads != 0 {
						t.Fatal("fraction 0 produced reads")
					}
					if frac == 1 && res.Writes != 0 {
						t.Fatal("fraction 1 produced writes")
					}
				})
			}
		}
	}
}

func fmtFrac(f float64) string {
	switch f {
	case 0:
		return "w-only"
	case 1:
		return "r-only"
	case 0.5:
		return "mixed"
	default:
		return "read-heavy"
	}
}

// Read-sharing must actually happen: with a long read section and all
// readers, total elapsed time must be far below the serialized sum.
func TestRWLocksReadersShare(t *testing.T) {
	for _, info := range RWLocks() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			// Ideal memory isolates the sharing semantics from
			// interconnect serialization (on the bus model the lock
			// protocol's transactions queue at 20 cycles each, which
			// is measured by F2, not by this test).
			const procs, iters = 8, 10
			const work = 2000
			res, err := RunRWIn(nil,
				machine.Config{Procs: procs, Topo: topo.Ideal, Seed: 3},
				info,
				RWOpts{Iters: iters, ReadFraction: 1, Work: work},
			)
			if err != nil {
				t.Fatal(err)
			}
			serialized := int64(procs) * iters * work
			if int64(res.Cycles) > serialized/3 {
				t.Fatalf("%s: %d cycles for all-reader load; near-serialized (%d) means readers do not share",
					info.Name, res.Cycles, serialized)
			}
		})
	}
}

// The fair lock must not starve writers even under a reader flood; the
// counter lock is allowed to (it is the baseline that motivates
// fairness) but both must at least complete.
func TestRWQSyncWriterProgress(t *testing.T) {
	info, _ := RWLockByName("rw-qsync")
	res, err := RunRWIn(nil,
		machine.Config{Procs: 12, Topo: topo.Bus, Seed: 17},
		info,
		RWOpts{Iters: 40, ReadFraction: 0.9, Work: 20, Think: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("no writes completed under reader flood")
	}
}

// The mechanism's RW lock must keep remote traffic per operation low on
// NUMA: spins are local.
func TestRWQSyncLocalSpinOnNUMA(t *testing.T) {
	info, _ := RWLockByName("rw-qsync")
	res, err := RunRWIn(nil,
		machine.Config{Procs: 16, Topo: topo.NUMA, Seed: 9},
		info,
		RWOpts{Iters: 30, ReadFraction: 0.5, Work: 15, Think: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrafficPerOp > 14 {
		t.Fatalf("rw-qsync made %.2f remote refs/op; expected bounded (local spinning)", res.TrafficPerOp)
	}
}

func TestRWLockByNameUnknown(t *testing.T) {
	if _, ok := RWLockByName("bogus"); ok {
		t.Fatal("bogus rwlock found")
	}
}

func TestRWDeterministicReplay(t *testing.T) {
	run := func() RWResult {
		info, _ := RWLockByName("rw-qsync")
		res, err := RunRWIn(nil,
			machine.Config{Procs: 6, Topo: topo.NUMA, Seed: 21},
			info,
			RWOpts{Iters: 25, ReadFraction: 0.7, Work: 10, Think: 15},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Reads != b.Reads || a.Stats.RemoteRefs != b.Stats.RemoteRefs {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestGraunkeThakkarBasics(t *testing.T) {
	// The gt lock is covered by the registry-wide tests; pin down its
	// FIFO property and flag-flipping reuse explicitly.
	res, err := RunLockIn(nil,
		machine.Config{Procs: 10, Topo: topo.Bus, Seed: 2},
		mustLock(t, "gt"),
		LockOpts{Iters: 50, CS: 10, Think: 20, CheckMutex: true, RecordOrder: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.FIFOInversions != 0 {
		t.Fatalf("gt granted %d requests out of order", res.FIFOInversions)
	}
	if res.Acquisitions != 10*50 {
		t.Fatalf("acquisitions = %d", res.Acquisitions)
	}
}
