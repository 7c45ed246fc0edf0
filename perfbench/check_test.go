package main

import (
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/simsync"
)

var update = flag.Bool("update", false, "re-record digests.json at its seed (runs every storm cell and a full and a quick survey pass)")

// TestRecordDigests re-records digests.json when run with -update.
func TestRecordDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to re-record digests.json")
	}
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	d.Storm, d.Survey, d.Quick = map[string]string{}, map[string]map[string]string{}, map[string]map[string]string{}
	lock, _ := simsync.LockByName("tas")
	pool := new(machine.Pool)
	for i, c := range stormCells {
		res, err := simsync.RunLockIn(pool, c.config(d.Seed, i), lock, c.opts())
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		d.Storm[c.label] = stormDigest(res)
	}
	exps, err := experiments(surveyIDs)
	if err != nil {
		t.Fatal(err)
	}
	for _, quick := range []bool{false, true} {
		for _, seed := range passSeeds(d.Seed, quick) {
			sd := map[string]string{}
			for _, e := range exps {
				tables, err := e.Run(harness.Options{Seed: seed, Quick: quick})
				if err != nil {
					t.Fatalf("%s seed %d: %v", e.IDs[0], seed, err)
				}
				for _, tb := range tables {
					if !hostTimeTables[tb.ID] {
						sd[tb.ID] = tableDigest(tb)
					}
				}
			}
			d.surveyDigests(quick)[strconv.FormatUint(seed, 10)] = sd
		}
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("digests.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// doctor returns a copy of want with key's digest changed.
func doctor(want map[string]string, key string) map[string]string {
	out := map[string]string{}
	for k, v := range want {
		out[k] = v
	}
	out[key] = "0" + want[key][1:]
	return out
}

func TestStormCheckFiresOnDoctoredDigest(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	want := d.forSeed(d.Seed).Storm
	pool := new(machine.Pool)
	if r := runStorm(pool, d.Seed, 0, 1, want, nil, false); r.failed != 0 {
		t.Fatalf("recorded digests: %d of %d failed: %v", r.failed, r.attempted, r.problems)
	}
	// The untimed round and the one measured round each run bus-P32 once.
	r := runStorm(pool, d.Seed, 0, 1, doctor(want, "bus-P32"), nil, false)
	if r.failed != 2 {
		t.Fatalf("doctored bus-P32 digest: %d failed, want 2: %v", r.failed, r.problems)
	}
}

func TestSurveyCheckFiresOnDoctoredDigest(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := harness.Lookup("T1")
	for _, quick := range []bool{false, true} {
		seeds := passSeeds(d.Seed, quick)[:1]
		sk := strconv.FormatUint(seeds[0], 10)
		want := map[string]map[string]string{sk: {"T1": d.surveyDigests(quick)[sk]["T1"]}}
		r := runSurvey([]harness.Experiment{e}, quick, seeds, 1, want, nil, false)
		if r.failed != 0 || r.cells == 0 {
			t.Fatalf("quick=%t recorded digest: %d of %d cells failed: %v", quick, r.failed, r.cells, r.problems)
		}
		want[sk] = doctor(want[sk], "T1")
		r = runSurvey([]harness.Experiment{e}, quick, seeds, 1, want, nil, false)
		if r.failed != r.cells {
			t.Fatalf("quick=%t doctored T1 digest: %d of %d cells failed, want all: %v", quick, r.failed, r.cells, r.problems)
		}
	}
}

// TestBenchmarkJSONNamesTheMetrics holds BENCHMARK.json's metric lists
// to the metrics a run prints.
func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []def
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.what, len(c.got), len(c.want))
		}
		for i, w := range c.want {
			if c.got[i] != (def{w.name, w.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark prints %s %s", c.what, i, c.got[i], w.name, w.unit)
			}
		}
	}
}
