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

// Golden Bus/NUMA equivalence. The topology refactor (ISSUE 5) must
// leave the two canonical machine models bit-identical to the
// pre-refactor Model-enum implementation: cycles, event counts,
// sequence-dependent interleavings, traffic accounting, and every
// per-processor counter. The golden file was
// generated on the last pre-refactor commit (go test -run TestGolden
// -update-golden) and is deliberately NOT regenerated by default: a
// diff against it is a diff against the enum-era implementation.
//
// Cells cover every algorithm of all five simulated families on both
// canonical models at P ∈ {2, 8}, with the determinism suite's
// workload shapes.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_busnuma.json from the current implementation")

const goldenPath = "testdata/golden_busnuma.json"

// goldenCell is one recorded (family, algorithm, model, procs) run.
type goldenCell struct {
	Family  string        `json:"family"`
	Algo    string        `json:"algo"`
	Model   string        `json:"model"`
	Procs   int           `json:"procs"`
	Ops     uint64        `json:"ops"`     // family-level operation count (acquisitions, episodes, ...)
	Traffic uint64        `json:"traffic"` // Stats.TrafficFor on the model's headline metric
	Stats   machine.Stats `json:"stats"`
}

func goldenConfig(model topo.Topology, procs int) machine.Config {
	return machine.Config{Procs: procs, Topo: model, Seed: 7}
}

func goldenTraffic(st machine.Stats, model topo.Topology) uint64 {
	return st.TrafficFor(model)
}

// goldenModels resolves the two canonical model names.
func goldenModels() map[string]topo.Topology {
	return map[string]topo.Topology{"bus": topo.Bus, "numa": topo.NUMA}
}

// runGoldenCell executes the canonical workload for one family/algo on
// one model and returns the measured cell.
func runGoldenCell(family, algo, modelName string, model topo.Topology, procs int) (goldenCell, error) {
	return runGoldenCellCfg(family, algo, modelName, model, goldenConfig(model, procs))
}

// runGoldenCellCfg is runGoldenCell with an explicit machine config, so
// sibling golden suites (golden_cluster_test.go) can reuse the family
// dispatch with their own topology and window settings.
func runGoldenCellCfg(family, algo, modelName string, model topo.Topology, cfg machine.Config) (goldenCell, error) {
	cell := goldenCell{Family: family, Algo: algo, Model: modelName, Procs: cfg.Procs}
	switch family {
	case "lock":
		info, ok := LockByName(algo)
		if !ok {
			return cell, fmt.Errorf("unknown lock %q", algo)
		}
		res, err := RunLockIn(nil, cfg, info, LockOpts{Iters: 20, CS: 25, Think: 50, CheckMutex: true})
		if err != nil {
			return cell, err
		}
		cell.Ops, cell.Stats = res.Acquisitions, res.Stats
	case "barrier":
		info, ok := BarrierByName(algo)
		if !ok {
			return cell, fmt.Errorf("unknown barrier %q", algo)
		}
		res, err := RunBarrierIn(nil, cfg, info, BarrierOpts{Episodes: 10, Work: 150})
		if err != nil {
			return cell, err
		}
		cell.Ops, cell.Stats = uint64(res.Episodes), res.Stats
	case "rw":
		info, ok := RWLockByName(algo)
		if !ok {
			return cell, fmt.Errorf("unknown rwlock %q", algo)
		}
		res, err := RunRWIn(nil, cfg, info, RWOpts{Iters: 20, ReadFraction: 0.8, Work: 40, Think: 60})
		if err != nil {
			return cell, err
		}
		cell.Ops, cell.Stats = res.Reads+res.Writes, res.Stats
	case "sem":
		info, ok := SemaphoreByName(algo)
		if !ok {
			return cell, fmt.Errorf("unknown semaphore %q", algo)
		}
		res, err := RunProducerConsumerIn(nil, cfg, info, PCOpts{Items: 40, Capacity: 4, Work: 20})
		if err != nil {
			return cell, err
		}
		cell.Ops, cell.Stats = uint64(res.Items), res.Stats
	case "counter":
		info, ok := CounterByName(algo)
		if !ok {
			return cell, fmt.Errorf("unknown counter %q", algo)
		}
		res, err := RunCounterIn(nil, cfg, info, CounterOpts{Incs: 30, Think: 20})
		if err != nil {
			return cell, err
		}
		cell.Ops, cell.Stats = res.Incs, res.Stats
	default:
		return cell, fmt.Errorf("unknown family %q", family)
	}
	cell.Traffic = goldenTraffic(cell.Stats, model)
	return cell, nil
}

// goldenAlgoLists enumerates the pre-refactor registry contents. The
// lists are fixed here rather than read from the live registries so
// that algorithms added after the refactor (which have no enum-era
// baseline) do not enter the comparison.
func goldenAlgoLists() map[string][]string {
	return map[string][]string{
		"lock":    {"tas", "ttas", "tas-bo", "ticket", "ticket-bo", "anderson", "gt", "qsync"},
		"barrier": {"central", "combining", "dissemination", "tournament", "qsync-tree"},
		"rw":      {"rw-ctr", "rw-qsync"},
		"sem":     {"sem-central", "sem-qsync"},
		"counter": {"ctr-fa", "ctr-combine", "ctr-sharded"},
	}
}

var goldenFamilies = []string{"lock", "barrier", "rw", "sem", "counter"}

func generateGolden(t *testing.T) []goldenCell {
	t.Helper()
	models := goldenModels()
	var cells []goldenCell
	for _, family := range goldenFamilies {
		for _, algo := range goldenAlgoLists()[family] {
			for _, modelName := range []string{"bus", "numa"} {
				for _, procs := range []int{2, 8} {
					cell, err := runGoldenCell(family, algo, modelName, models[modelName], procs)
					if err != nil {
						t.Fatalf("%s/%s/%s/P%d: %v", family, algo, modelName, procs, err)
					}
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells
}

// TestGoldenBusNUMAEquivalence replays every recorded enum-era cell on
// the current implementation and requires bit-identical stats.
func TestGoldenBusNUMAEquivalence(t *testing.T) {
	if *updateGolden {
		cells := generateGolden(t)
		data, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cells to %s", len(cells), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (generate with -update-golden on a pre-refactor tree): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("golden file is empty")
	}
	models := goldenModels()
	for _, w := range want {
		model, ok := models[w.Model]
		if !ok {
			t.Fatalf("golden cell references unknown model %q", w.Model)
		}
		got, err := runGoldenCell(w.Family, w.Algo, w.Model, model, w.Procs)
		if err != nil {
			t.Errorf("%s/%s/%s/P%d: %v", w.Family, w.Algo, w.Model, w.Procs, err)
			continue
		}
		// WindowOps counts how many probe pops spin windows batched —
		// host-side accounting, not a simulation observable, and it
		// legitimately moves whenever the window shapes change (which
		// storms batch and which replay per-event). The A/B determinism
		// suite pins
		// that windows leave the observables unchanged; this suite pins
		// the observables themselves, so the counter is scrubbed.
		got.Stats.WindowOps = 0
		w.Stats.WindowOps = 0
		// The dispatch routes and handoffs likewise count how the drive
		// loop delivered dispatches (spin.go, cont.go) — host accounting,
		// not simulation observables, and the recording predates most of
		// them; the determinism suite pins every scripted primitive to
		// its closure twin, which issues the same ops from the goroutine.
		scrubRoutes(&got.Stats)
		scrubRoutes(&w.Stats)
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s/%s/%s/P%d diverged from the enum-era baseline:\n  want: %+v\n  got:  %+v",
				w.Family, w.Algo, w.Model, w.Procs, w, got)
		}
	}
}
