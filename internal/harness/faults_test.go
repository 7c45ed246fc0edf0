package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/topo"
)

func TestValidateFaults(t *testing.T) {
	if err := ValidateFaults([]string{"L0", "r1", "L3"}); err != nil {
		t.Fatalf("valid names rejected: %v", err)
	}
	err := ValidateFaults([]string{"L0", "L9"})
	if err == nil {
		t.Fatal("unknown level accepted")
	}
	if !strings.Contains(err.Error(), "L9") || !strings.Contains(err.Error(), "R2") {
		t.Fatalf("error should name the offender and the known levels: %v", err)
	}
}

// The CLIs' -algos and -topo guards: a typo must fail, naming the bad
// entry and listing the known names, instead of running a sweep that
// silently ignores it.
func TestValidateAlgosAndTopos(t *testing.T) {
	for _, tc := range []struct {
		name     string
		validate func([]string) error
		list     string
		bad      string   // the entry the error must name; "" if the list passes
		known    []string // names the error must list
	}{
		{"every registry", ValidateAlgos, "tas,central,rw-ctr,sem-sharded,ctr-fa,stdlib,rw-stdlib", "", nil},
		{"no algos", ValidateAlgos, "", "", nil},
		{"algo typo", ValidateAlgos, "tas,tsa", "tsa", []string{"tas", "central", "rw-ctr", "sem-sharded", "ctr-fa", "stdlib", "rw-stdlib"}},
		{"every topology", ValidateTopos, strings.Join(topo.Names(), ","), "", nil},
		{"no topologies", ValidateTopos, "", "", nil},
		{"unknown topology", ValidateTopos, "bus,mesh", "mesh", topo.Names()},
		// Unlike fault levels, topology names are case-sensitive.
		{"topology case", ValidateTopos, "Cluster", "Cluster", topo.Names()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.validate(registry.SplitList(tc.list))
			if tc.bad == "" {
				if err != nil {
					t.Fatalf("%q rejected: %v", tc.list, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("%q accepted", tc.list)
			}
			named, listed, ok := strings.Cut(err.Error(), "(known: ")
			if !ok || !slices.Contains(strings.Fields(named), tc.bad) {
				t.Fatalf("error should name %q before the known list: %v", tc.bad, err)
			}
			listedNames := strings.Fields(strings.TrimSuffix(listed, ")"))
			for _, n := range tc.known {
				if !slices.Contains(listedNames, n) {
					t.Errorf("known list lacks %q: %v", n, err)
				}
			}
		})
	}
}

func TestFaultLevelByNameCaseInsensitive(t *testing.T) {
	lv, ok := FaultLevelByName(" r2 ")
	if !ok || lv.Name != "R2" {
		t.Fatalf("got (%v, %v), want R2", lv.Name, ok)
	}
	if !lv.Recovery {
		t.Fatal("R2 must be a recovery level")
	}
	if _, ok := FaultLevelByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

// FT1/FT2 are the fail-stop ramp: the sweep must refuse the
// restart-carrying levels and point at FT3/FT4, which measure them.
func TestFaultSweepRejectsRecoveryLevels(t *testing.T) {
	o := Options{Quick: true, Faults: []string{"L0", "R1"}}
	_, err := runFaultSweep(o)
	if err == nil {
		t.Fatal("FT1/FT2 accepted a recovery level")
	}
	if !strings.Contains(err.Error(), "R1") || !strings.Contains(err.Error(), "FT3") {
		t.Fatalf("error should name the level and point at FT3/FT4: %v", err)
	}
}

// FT3/FT4 accept any mix of fail-stop and recovery levels.
func TestRecoverySweepAcceptsMixedLevels(t *testing.T) {
	o := Options{Quick: true, Faults: []string{"L2", "R1"}}
	tables, err := runRecoverySweep(o)
	if err != nil {
		t.Fatalf("runRecoverySweep: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want FT3+FT4", len(tables))
	}
	wantRows := 3 * 2 // topologies x selected levels
	for _, tb := range tables {
		if len(tb.Rows) != wantRows {
			t.Fatalf("%s: got %d rows, want %d", tb.ID, len(tb.Rows), wantRows)
		}
	}
}
