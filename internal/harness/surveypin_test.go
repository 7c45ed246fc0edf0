package harness

import (
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surveyPinFile is the benchmark module's record of every simulated
// survey table's digest, at full size and at -quick size per harness
// seed. This package only reads it; perfbench re-records it.
const surveyPinFile = "../../perfbench/digests.json"

// surveyPinSeeds is how many of the recorded quick seeds the pin reruns.
const surveyPinSeeds = 3

// TestSurveyTablesPinned pins every survey table in the tier-1 suite,
// not only when perfbench runs: it reruns the recorded survey
// experiments at -quick size on the first surveyPinSeeds quick seeds
// recorded in surveyPinFile (in numeric order) and compares each
// table's digest. SC2 times the host, so it has no record and is not
// compared. A mismatch names the seed and the table.
func TestSurveyTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns three quick survey passes")
	}
	buf, err := os.ReadFile(surveyPinFile)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Quick map[string]map[string]string `json:"quick"`
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatalf("%s: %v", surveyPinFile, err)
	}
	var seeds []uint64
	for k := range rec.Quick {
		seed, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			t.Fatalf("%s: quick seed %q: %v", surveyPinFile, k, err)
		}
		seeds = append(seeds, seed)
	}
	slices.Sort(seeds)
	if len(seeds) < surveyPinSeeds {
		t.Fatalf("%s records %d quick seeds, want at least %d", surveyPinFile, len(seeds), surveyPinSeeds)
	}

	for _, seed := range seeds[:surveyPinSeeds] {
		want := rec.Quick[strconv.FormatUint(seed, 10)]
		ids := make([]string, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		got := map[string]string{}
		ran := map[string]bool{}
		for _, id := range ids {
			e, ok := Lookup(id)
			if !ok {
				t.Errorf("seed %d: recorded table %s is not registered", seed, id)
				continue
			}
			if key := strings.Join(e.IDs, "+"); !ran[key] {
				ran[key] = true
				tables, err := e.Run(Options{Seed: seed, Quick: true})
				if err != nil {
					t.Fatalf("quick seed %d %s: %v", seed, key, err)
				}
				for _, tb := range tables {
					got[tb.ID] = tableDigest(tb)
				}
			}
			if got[id] != want[id] {
				t.Errorf("quick seed %d %s: digest %.12s, want %.12s", seed, id, got[id], want[id])
			}
		}
	}
}
