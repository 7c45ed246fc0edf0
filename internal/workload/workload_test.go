package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
)

func TestRunCriticalSections(t *testing.T) {
	info, _ := locks.ByName("qsync-park")
	res, ok := RunCriticalSections(info.New(8), CSOpts{
		Goroutines: 8, Iters: 500, CSWork: 5, ThinkWork: 5,
	})
	if !ok {
		t.Fatal("mutual exclusion violated")
	}
	if res.Total != 8*500 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.NsPerOp <= 0 || res.OpsPerSec <= 0 {
		t.Fatalf("bad rates: %+v", res)
	}
}

func TestRunCriticalSectionsAllLocks(t *testing.T) {
	for _, info := range locks.All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			_, ok := RunCriticalSections(info.New(4), CSOpts{
				Goroutines: 4, Iters: 300, CSWork: 2,
			})
			if !ok {
				t.Fatalf("%s violated mutual exclusion", info.Name)
			}
		})
	}
}

func TestRunReadMix(t *testing.T) {
	for _, info := range locks.RWLocks() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			for _, frac := range []float64{0, 0.5, 0.9, 1} {
				res, ok := RunReadMix(info.New(6), RWOpts{
					Goroutines: 6, Iters: 400, ReadFraction: frac, Work: 3,
				})
				if !ok {
					t.Fatalf("read fraction %v: invariant broken", frac)
				}
				if res.Reads+res.Writes != 6*400 {
					t.Fatalf("ops lost: %d + %d", res.Reads, res.Writes)
				}
				// The mix should track the requested fraction loosely.
				got := float64(res.Reads) / float64(res.Reads+res.Writes)
				if frac == 0 && got != 0 {
					t.Fatalf("frac 0 produced reads")
				}
				if frac == 1 && got != 1 {
					t.Fatalf("frac 1 produced writes")
				}
			}
		})
	}
}

func TestRunPipeline(t *testing.T) {
	for _, mode := range []core.WaitMode{core.SpinPark, core.Spin} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			res := RunPipeline(PipelineOpts{
				Producers: 4, Consumers: 4, Items: 5000, Capacity: 16, Mode: mode,
			})
			if !res.SumValidated {
				t.Fatal("pipeline checksum mismatch: items lost or duplicated")
			}
			if res.ItemsPerSec <= 0 {
				t.Fatalf("bad throughput: %v", res.ItemsPerSec)
			}
		})
	}
}

func TestRunPipelineTinyCapacity(t *testing.T) {
	res := RunPipeline(PipelineOpts{
		Producers: 3, Consumers: 2, Items: 2000, Capacity: 1, Mode: core.SpinPark,
	})
	if !res.SumValidated {
		t.Fatal("capacity-1 pipeline checksum mismatch")
	}
}

func TestRunPipelineUnbalanced(t *testing.T) {
	res := RunPipeline(PipelineOpts{
		Producers: 1, Consumers: 7, Items: 3000, Capacity: 8, Mode: core.SpinPark,
	})
	if !res.SumValidated {
		t.Fatal("unbalanced pipeline checksum mismatch")
	}
}
