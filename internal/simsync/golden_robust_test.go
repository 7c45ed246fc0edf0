package simsync

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// Golden robust-primitive cells. The fault-tolerant locks (tas-deadline,
// lease, lease-fence, qheal) and the group-striped semaphore
// (sem-sharded) joined the registries after the enum-era and
// pre-batcher goldens were recorded, so neither covers them. This file
// pins them: every cell was recorded on the tree whose acquire and P
// waits were still Go poll loops, before those loops became
// continuation scripts, and it is deliberately NOT regenerated by
// default — a diff against it is a diff against the poll-loop
// implementation.
//
// Cells cover the four locks (determinism-suite lock workload) and the
// semaphore (producer/consumer workload) on bus, numa and cluster at
// P ∈ {8, 32}, each fault-free and under recoveryPlanFor's
// stall+degrade+crash-with-restart plan.

var updateGoldenRobust = flag.Bool("update-golden-robust", false, "rewrite testdata/golden_robust.json from the current implementation")

const goldenRobustPath = "testdata/golden_robust.json"

// robustGoldenCell is one recorded cell; Plan names the fault plan the
// cell ran under ("" for fault-free).
type robustGoldenCell struct {
	goldenCell
	Plan string `json:"plan"`
}

// goldenRobustAlgos lists the pinned algorithms per family.
func goldenRobustAlgos() map[string][]string {
	return map[string][]string{
		"lock": {"tas-deadline", "lease", "lease-fence", "qheal"},
		"sem":  {"sem-sharded"},
	}
}

// goldenRobustTopos resolves the pinned topologies in recording order.
func goldenRobustTopos() []topo.Topology {
	return []topo.Topology{topo.Bus, topo.NUMA, topo.Cluster}
}

// runGoldenRobustCell runs one cell, under recoveryPlanFor when planned.
func runGoldenRobustCell(family, algo string, tp topo.Topology, procs int, planned bool) (robustGoldenCell, error) {
	cfg := machine.Config{Procs: procs, Topo: tp, Seed: 7}
	var cell robustGoldenCell
	if planned {
		cfg.Faults = recoveryPlanFor(tp, procs)
		cell.Plan = cfg.Faults.Name()
	}
	var err error
	cell.goldenCell, err = runGoldenCellCfg(family, algo, tp.Name(), tp, cfg)
	return cell, err
}

func generateGoldenRobust(t *testing.T) []robustGoldenCell {
	t.Helper()
	var cells []robustGoldenCell
	for _, family := range []string{"lock", "sem"} {
		for _, algo := range goldenRobustAlgos()[family] {
			for _, tp := range goldenRobustTopos() {
				for _, procs := range []int{8, 32} {
					for _, planned := range []bool{false, true} {
						cell, err := runGoldenRobustCell(family, algo, tp, procs, planned)
						if err != nil {
							t.Fatalf("%s/%s/%s/P%d plan=%v: %v", family, algo, tp.Name(), procs, planned, err)
						}
						cells = append(cells, cell)
					}
				}
			}
		}
	}
	return cells
}

// TestGoldenRobust replays every recorded poll-loop-era cell on the
// current implementation and requires bit-identical stats, with the
// same WindowOps/InlineDispatches scrub as TestGoldenBusNUMAEquivalence.
func TestGoldenRobust(t *testing.T) {
	if *updateGoldenRobust {
		cells := generateGoldenRobust(t)
		data, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenRobustPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRobustPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cells to %s", len(cells), goldenRobustPath)
		return
	}

	data, err := os.ReadFile(goldenRobustPath)
	if err != nil {
		t.Fatalf("golden file missing (generate with -update-golden-robust on a poll-loop tree): %v", err)
	}
	var want []robustGoldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("golden file is empty")
	}
	topos := map[string]topo.Topology{}
	for _, tp := range goldenRobustTopos() {
		topos[tp.Name()] = tp
	}
	for _, w := range want {
		tp, ok := topos[w.Model]
		if !ok {
			t.Fatalf("golden cell references unknown topology %q", w.Model)
		}
		name := fmt.Sprintf("%s/%s/%s/P%d", w.Family, w.Algo, w.Model, w.Procs)
		if w.Plan != "" {
			name += "/" + w.Plan
		}
		got, err := runGoldenRobustCell(w.Family, w.Algo, tp, w.Procs, w.Plan != "")
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// Scrubbed as in TestGoldenBusNUMAEquivalence: these count host
		// work (batched window pops, dispatch routes, handoffs), not
		// simulated observables.
		got.Stats.WindowOps, w.Stats.WindowOps = 0, 0
		scrubRoutes(&got.Stats)
		scrubRoutes(&w.Stats)
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s diverged from the poll-loop baseline:\n  want: %+v\n  got:  %+v", name, w, got)
		}
	}
}
