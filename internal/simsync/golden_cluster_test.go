package simsync

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// Golden cluster per-event equivalence. The per-distance-class window
// batcher (ISSUE 6) must leave the cluster topology's *per-event*
// execution bit-identical to the pre-batcher implementation: the file
// was generated on the last tree where cluster storms were window
// ineligible, with NoSpinWindows set so the recording pins the
// per-event path explicitly. Replays run with the same flag, so the
// comparison stays meaningful after batching lands — windows-on
// equivalence is enforced separately by the determinism A/B suite,
// whose scrubbed-WindowOps comparison closes the triangle back to
// these cells.
//
// Cells cover every algorithm of all five simulated families on the
// canonical cluster machine at P ∈ {8, 32} — 8 spans both the
// intra-cluster storm and one boundary crossing, 32 is the classic
// eight-cluster contended regime.

var updateGoldenCluster = flag.Bool("update-golden-cluster", false, "rewrite testdata/golden_cluster.json from the current implementation")

const goldenClusterPath = "testdata/golden_cluster.json"

func goldenClusterConfig(procs int) machine.Config {
	return machine.Config{Procs: procs, Topo: topo.Cluster, Seed: 7, NoSpinWindows: true}
}

func generateGoldenCluster(t *testing.T) []goldenCell {
	t.Helper()
	var cells []goldenCell
	for _, family := range goldenFamilies {
		for _, algo := range goldenAlgoLists()[family] {
			for _, procs := range []int{8, 32} {
				cell, err := runGoldenCellCfg(family, algo, "cluster", topo.Cluster, goldenClusterConfig(procs))
				if err != nil {
					t.Fatalf("%s/%s/cluster/P%d: %v", family, algo, procs, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// TestGoldenClusterEquivalence replays every recorded pre-batcher
// cluster cell on the current implementation and requires bit-identical
// stats, Events and WindowOps included.
func TestGoldenClusterEquivalence(t *testing.T) {
	if *updateGoldenCluster {
		cells := generateGoldenCluster(t)
		data, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenClusterPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenClusterPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cells to %s", len(cells), goldenClusterPath)
		return
	}

	data, err := os.ReadFile(goldenClusterPath)
	if err != nil {
		t.Fatalf("golden file missing (generate with -update-golden-cluster on a pre-batcher tree): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("golden file is empty")
	}
	for _, w := range want {
		if w.Model != "cluster" {
			t.Fatalf("golden cell references unexpected model %q", w.Model)
		}
		got, err := runGoldenCellCfg(w.Family, w.Algo, w.Model, topo.Cluster, goldenClusterConfig(w.Procs))
		if err != nil {
			t.Errorf("%s/%s/%s/P%d: %v", w.Family, w.Algo, w.Model, w.Procs, err)
			continue
		}
		// The dispatch routes and handoffs are host-side dispatch
		// accounting, not simulation observables; the recording
		// predates them. The determinism suite pins every scripted
		// primitive to its closure twin.
		scrubRoutes(&got.Stats)
		scrubRoutes(&w.Stats)
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s/%s/%s/P%d diverged from the pre-batcher baseline:\n  want: %+v\n  got:  %+v",
				w.Family, w.Algo, w.Model, w.Procs, w, got)
		}
	}
}
