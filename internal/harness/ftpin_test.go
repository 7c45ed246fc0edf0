package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateFTPin = flag.Bool("update", false, "rewrite testdata/ft_digests.json from the current implementation")

const ftPinFile = "testdata/ft_digests.json"

// ftPinQuickSeeds are the harness seeds FT1-FT4 are pinned at -quick
// size. 13309476754707697221 is the seed whose bus/R1 plan once walked
// a qheal waiter onto a head ticket taken but not yet announced.
var ftPinQuickSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 13309476754707697221}

// tableDigest hashes a table's id, column headers and rendered cells;
// title and note are prose and left out.
func tableDigest(tb Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", tb.ID, strings.Join(tb.Cols, "\x1f"))
	for _, row := range tb.Rows {
		fmt.Fprintf(h, "%s\x1e", strings.Join(row, "\x1f"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFaultTablesPinned pins every cell of the fault tables: FT1-FT4 at
// -quick size over ftPinQuickSeeds, and FT1/FT2 at full size for seed
// 1. The fault sweeps run through the same lock and barrier runners as
// the fault-free battery, so any change to how a run under a fault plan
// is driven, checked or tallied shows up here as a digest mismatch
// naming the table and seed. Re-record with
// `go test ./internal/harness -run TestFaultTablesPinned -update`.
func TestFaultTablesPinned(t *testing.T) {
	type pin struct {
		id    string
		quick bool
		seed  uint64
	}
	var pins []pin
	for _, seed := range ftPinQuickSeeds {
		pins = append(pins, pin{"FT1", true, seed}, pin{"FT3", true, seed})
	}
	pins = append(pins, pin{"FT1", false, 1})

	got := map[string]string{}
	for _, pn := range pins {
		e, ok := Lookup(pn.id)
		if !ok {
			t.Fatalf("experiment %s not registered", pn.id)
		}
		size := "full"
		if pn.quick {
			size = "quick"
		}
		tables, err := e.Run(Options{Seed: pn.seed, Quick: pn.quick})
		if err != nil {
			t.Fatalf("%s %s seed %d: %v", size, pn.id, pn.seed, err)
		}
		for _, tb := range tables {
			got[fmt.Sprintf("%s/%d/%s", size, pn.seed, tb.ID)] = tableDigest(tb)
		}
	}

	if *updateFTPin {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(ftPinFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ftPinFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d table digests in %s", len(got), ftPinFile)
		return
	}

	buf, err := os.ReadFile(ftPinFile)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", ftPinFile, err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %.12s, want %.12s", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("rendered %d tables, %s pins %d", len(got), ftPinFile, len(want))
	}
}
