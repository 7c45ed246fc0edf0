package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The -simjson flag must accumulate a trajectory: new snapshots merge
// into the existing file instead of overwriting it, and files written
// in the pre-trajectory single-snapshot layout convert on load.

func TestLoadSimBenchConvertsLegacyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sim.json")
	legacy := `{
  "experiment": "simulator hot-path throughput",
  "quick": false,
  "results": [
    {"workload": "lock/tas", "model": "bus", "procs": 8,
     "sim_ops_per_sec": 1000, "events_per_sec": 900, "inline_ops_frac": 0.1}
  ]
}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := loadSimBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 1 {
		t.Fatalf("converted %d snapshots, want 1", len(f.Snapshots))
	}
	s := f.Snapshots[0]
	if len(s.Results) != 1 || s.Results[0].Workload != "lock/tas" || s.Results[0].SimOpsPerSec != 1000 {
		t.Fatalf("legacy results not preserved: %+v", s)
	}
	if f.Results != nil {
		t.Fatal("legacy fields should be cleared after conversion")
	}
}

func TestLoadSimBenchMissingFile(t *testing.T) {
	f, err := loadSimBench(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing file should yield an empty trajectory, got %v", err)
	}
	if len(f.Snapshots) != 0 {
		t.Fatalf("expected empty trajectory, got %d snapshots", len(f.Snapshots))
	}
}

func TestMergeSimSnapshotAppendsAndReplaces(t *testing.T) {
	base := simBenchSnapshot{Date: "2026-07-01", Label: "baseline", Results: []simBenchResult{{Workload: "lock/tas", SimOpsPerSec: 1}}}
	var f simBenchFile
	f, err := mergeSimSnapshot(f, base)
	if err != nil {
		t.Fatal(err)
	}
	// A different label on the same date is a distinct milestone: append.
	next := simBenchSnapshot{Date: "2026-07-01", Label: "batched", Results: []simBenchResult{{Workload: "lock/tas", SimOpsPerSec: 3}}}
	if f, err = mergeSimSnapshot(f, next); err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 2 {
		t.Fatalf("distinct labels should append: got %d snapshots", len(f.Snapshots))
	}
	// Re-running the same (date, label, quick) measurement replaces it.
	rerun := simBenchSnapshot{Date: "2026-07-01", Label: "batched", Results: []simBenchResult{{Workload: "lock/tas", SimOpsPerSec: 4}}}
	if f, err = mergeSimSnapshot(f, rerun); err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 2 {
		t.Fatalf("rerun should replace, not append: got %d snapshots", len(f.Snapshots))
	}
	if got := f.Snapshots[1].Results[0].SimOpsPerSec; got != 4 {
		t.Fatalf("rerun did not replace the matching snapshot: %v", got)
	}
	// The same label on a later date is a new trajectory point: append.
	later := simBenchSnapshot{Date: "2026-07-02", Label: "batched"}
	if f, err = mergeSimSnapshot(f, later); err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots) != 3 {
		t.Fatalf("later date should append: got %d snapshots", len(f.Snapshots))
	}
}

// TestSimScaleLabelRoundTrip pins the procs-axis scaling label (PR 6):
// the deep P ∈ {256, 1024} battery rows must land in the trajectory as
// distinct rows — (workload, model, scale) is the collision-free key —
// and the label must survive a write/load round trip through the
// trajectory file, including past a merge that replaces the snapshot.
func TestSimScaleLabelRoundTrip(t *testing.T) {
	if got, want := simScaleLabel(32), "P32"; got != want {
		t.Fatalf("simScaleLabel(32) = %q, want %q", got, want)
	}
	row := func(workload, model string, procs int) simBenchResult {
		return simBenchResult{
			Workload: workload, Model: model, Procs: procs,
			Scale: simScaleLabel(procs), SimOpsPerSec: float64(procs),
		}
	}
	snap := simBenchSnapshot{
		Date:  "2026-08-08",
		Label: "scaling sweep",
		Results: []simBenchResult{
			row("lock/tas", "cluster", 32),
			row("lock/tas", "cluster", 256),
			row("lock/tas-nowin", "cluster", 256),
			row("lock/tas", "cluster", 1024),
			row("lock/tas", "numa", 256),
		},
	}
	// The deep points share (workload, model) with the canonical rows;
	// the scale label is what keeps the row keys distinct.
	keys := map[string]bool{}
	for _, r := range snap.Results {
		k := r.Workload + "@" + r.Model + "/" + r.Scale
		if keys[k] {
			t.Fatalf("duplicate row key %q: scale label does not disambiguate", k)
		}
		keys[k] = true
	}

	var f simBenchFile
	f, err := mergeSimSnapshot(f, snap)
	if err != nil {
		t.Fatal(err)
	}
	f.Experiment = "round trip"
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadSimBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != 1 {
		t.Fatalf("round trip changed snapshot count: %d", len(got.Snapshots))
	}
	if !reflect.DeepEqual(got.Snapshots[0], snap) {
		t.Fatalf("snapshot changed across the round trip:\n  wrote %+v\n  read  %+v", snap, got.Snapshots[0])
	}
	for _, r := range got.Snapshots[0].Results {
		if r.Scale != simScaleLabel(r.Procs) {
			t.Errorf("row %s@%s: scale %q does not match procs %d", r.Workload, r.Model, r.Scale, r.Procs)
		}
	}
}

// TestSimInlineTwinLabelRoundTrip pins the continuation-dispatch twin
// labels (PR 10): an inline/noinline pair on the same (model, procs)
// must land in the trajectory as distinct rows — the "-noinline"
// workload suffix is the key, exactly like PR 4's "-nowin" twins — and
// both rows must survive the write/load round trip, including a twin
// that is simultaneously windows-off (suffixes compose in battery
// order: "-nowin-noinline"). The battery no longer writes -noinline
// rows, but the committed trajectory holds some, and every later merge
// must carry them.
func TestSimInlineTwinLabelRoundTrip(t *testing.T) {
	row := func(workload string, ops float64) simBenchResult {
		return simBenchResult{
			Workload: workload, Model: "cluster", Procs: 32,
			Scale: simScaleLabel(32), SimOpsPerSec: ops,
		}
	}
	snap := simBenchSnapshot{
		Date:  "2026-08-08",
		Label: "inline continuation dispatch",
		Results: []simBenchResult{
			row("lock/tas", 19e6),
			row("lock/tas-noinline", 7e6),
			row("lock/tas-nowin", 6e6),
			row("lock/tas-nowin-noinline", 5e6),
		},
	}
	keys := map[string]bool{}
	for _, r := range snap.Results {
		k := r.Workload + "@" + r.Model + "/" + r.Scale
		if keys[k] {
			t.Fatalf("duplicate row key %q: dispatch twin suffix does not disambiguate", k)
		}
		keys[k] = true
	}

	var f simBenchFile
	f, err := mergeSimSnapshot(f, snap)
	if err != nil {
		t.Fatal(err)
	}
	f.Experiment = "round trip"
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadSimBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != 1 || !reflect.DeepEqual(got.Snapshots[0], snap) {
		t.Fatalf("twin snapshot changed across the round trip:\n  wrote %+v\n  read  %+v", snap, got.Snapshots)
	}
}

// TestMergeSimSnapshotRefusesDuplicateLabel pins the duplicate guard:
// the same (date, label) in a different quick/full mode must be
// refused, not appended as a silent second point, and the trajectory
// must be left untouched.
func TestMergeSimSnapshotRefusesDuplicateLabel(t *testing.T) {
	full := simBenchSnapshot{Date: "2026-07-01", Label: "batched", Results: []simBenchResult{{Workload: "lock/tas", SimOpsPerSec: 4}}}
	var f simBenchFile
	f, err := mergeSimSnapshot(f, full)
	if err != nil {
		t.Fatal(err)
	}
	quick := simBenchSnapshot{Date: "2026-07-01", Label: "batched", Quick: true}
	g, err := mergeSimSnapshot(f, quick)
	if err == nil {
		t.Fatal("quick snapshot under an existing full (date, label) should be refused")
	}
	if len(g.Snapshots) != 1 || g.Snapshots[0].Results[0].SimOpsPerSec != 4 {
		t.Fatalf("refused merge must not modify the trajectory: %+v", g.Snapshots)
	}
	// The unlabeled default is held to the same rule.
	f, err = mergeSimSnapshot(f, simBenchSnapshot{Date: "2026-07-03"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = mergeSimSnapshot(f, simBenchSnapshot{Date: "2026-07-03", Quick: true}); err == nil {
		t.Fatal("unlabeled duplicate in a different mode should be refused")
	}
}
