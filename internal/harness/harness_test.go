package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simsync"
)

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:    "TX",
		Title: "demo",
		Note:  "shape",
		Cols:  []string{"a", "bb"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("10", "20")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"TX", "demo", "shape", "bb", "20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Cols: []string{"x", "y"}}
	tb.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "x,y\n1,2\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestFmt(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		1234:   "1234",
		123.4:  "123",
		12.345: "12.35",
		0.1234: "0.123",
	}
	for in, want := range cases {
		if got := Fmt(in); got != want {
			t.Errorf("Fmt(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, id := range IDList() {
		if _, ok := Lookup(id); !ok {
			t.Errorf("registry id %q not found by Lookup", id)
		}
	}
	if _, ok := Lookup("F99"); ok {
		t.Fatal("bogus id found")
	}
	// Case-insensitive.
	if _, ok := Lookup("f2"); !ok {
		t.Fatal("lower-case lookup failed")
	}
}

func TestRegistryCoversDesignDoc(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "F1", "F2", "F3", "F4", "F5",
		"F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15",
		"F16", "A1"}
	have := map[string]bool{}
	for _, id := range IDList() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s from DESIGN.md missing from registry", id)
		}
	}
}

// TestTableCSVRoundTrip writes a table through WriteCSV and reads it
// back through ReadCSV: columns and every cell must survive, including
// cells containing the CSV metacharacters.
func TestTableCSVRoundTrip(t *testing.T) {
	tb := Table{
		ID:   "RT",
		Cols: []string{"lock", "cyc/acq", "note"},
	}
	tb.AddRow("tas", "12.5", "plain")
	tb.AddRow("qsync", "9", `comma, quote " and
newline`)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != len(tb.Cols) || len(got.Rows) != len(tb.Rows) {
		t.Fatalf("shape changed: %dx%d -> %dx%d",
			len(tb.Rows), len(tb.Cols), len(got.Rows), len(got.Cols))
	}
	for i, c := range tb.Cols {
		if got.Cols[i] != c {
			t.Errorf("col %d = %q, want %q", i, got.Cols[i], c)
		}
	}
	for r := range tb.Rows {
		for c := range tb.Rows[r] {
			if got.Rows[r][c] != tb.Rows[r][c] {
				t.Errorf("cell (%d,%d) = %q, want %q", r, c, got.Rows[r][c], tb.Rows[r][c])
			}
		}
	}
	if _, err := ReadCSV(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty CSV accepted")
	}
}

// TestF16ShardedBeatsCentral is the acceptance gate for the sharded
// layer: at 16 simulated processors the striped counter must complete
// increments in fewer cycles than the central fetch&add hot spot.
func TestF16ShardedBeatsCentral(t *testing.T) {
	tables, err := runF16(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	col := func(name string) int {
		for i, c := range tb.Cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing from F16 (cols: %v)", name, tb.Cols)
		return -1
	}
	fa, sh := col("ctr-fa cyc/inc"), col("ctr-sharded cyc/inc")
	checked := false
	for _, row := range tb.Rows {
		var p, faCyc, shCyc float64
		if _, err := fmt.Sscanf(row[0], "%g", &p); err != nil {
			t.Fatalf("bad P cell %q", row[0])
		}
		if p < 16 {
			continue
		}
		if _, err := fmt.Sscanf(row[fa], "%g", &faCyc); err != nil {
			t.Fatalf("bad fa cell %q", row[fa])
		}
		if _, err := fmt.Sscanf(row[sh], "%g", &shCyc); err != nil {
			t.Fatalf("bad sharded cell %q", row[sh])
		}
		checked = true
		if shCyc >= faCyc {
			t.Errorf("P=%v: sharded (%.1f cyc/inc) does not beat central fetch&add (%.1f)",
				p, shCyc, faCyc)
		}
	}
	if !checked {
		t.Fatal("F16 quick sweep has no row with P >= 16")
	}
}

// TestAlgosFilter narrows a registry-driven sweep with Options.Algos
// and checks that only the requested columns appear — the shared
// selection path behind the -algos= flag.
func TestAlgosFilter(t *testing.T) {
	tables, err := runF6(Options{Quick: true, Seed: 1, Algos: []string{"tas", "qsync"}})
	if err != nil {
		t.Fatal(err)
	}
	cols := tables[0].Cols
	if len(cols) != 3 || cols[1] != "tas" || cols[2] != "qsync" {
		t.Fatalf("filtered cols = %v, want [CS cycles tas qsync]", cols)
	}
	// A filter naming no lock algorithm must leave the sweep whole.
	tables, err = runF6(Options{Quick: true, Seed: 1, Algos: []string{"not-a-lock"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Cols) < 4 {
		t.Fatalf("empty intersection emptied the sweep: cols = %v", tables[0].Cols)
	}
}

// TestScalingSweepSkipsOverCeilingBus pins the skip (not error)
// contract for protocol-limited topologies on shared processor axes:
// the scaling sweep's quick axis crosses the bus machine's 64-sharer
// ceiling, and the bus column must come back as skipped cells while
// the unlimited topologies' cells in the same rows carry numbers.
func TestScalingSweepSkipsOverCeilingBus(t *testing.T) {
	tables, err := runScalingSweep(Options{Quick: true, Seed: 1, Topos: []string{"bus", "cluster"}})
	if err != nil {
		t.Fatalf("sweep across the bus ceiling errored instead of skipping: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	for _, tb := range tables {
		col := func(name string) int {
			for i, c := range tb.Cols {
				if c == name {
					return i
				}
			}
			t.Fatalf("%s: column %q missing (cols: %v)", tb.ID, name, tb.Cols)
			return -1
		}
		bus, cluster := col("bus"), col("cluster")
		checkedSkip := false
		for _, row := range tb.Rows {
			var p int
			if _, err := fmt.Sscanf(row[0], "%d", &p); err != nil {
				t.Fatalf("%s: bad P cell %q", tb.ID, row[0])
			}
			if row[cluster] == skippedCell {
				t.Errorf("%s P=%d: unlimited cluster column skipped", tb.ID, p)
			}
			if p > 64 {
				checkedSkip = true
				if row[bus] != skippedCell {
					t.Errorf("%s P=%d: bus cell = %q, want skipped %q", tb.ID, p, row[bus], skippedCell)
				}
			} else if row[bus] == skippedCell {
				t.Errorf("%s P=%d: bus cell skipped below its ceiling", tb.ID, p)
			}
		}
		if !checkedSkip {
			t.Fatalf("%s: quick axis never crossed the bus ceiling — skip path untested", tb.ID)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunIDs([]string{"nope"}, Options{Quick: true}, &buf); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Each experiment must run end-to-end in quick mode and produce
// non-empty tables whose ids match the registry.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick harness sweep still takes a few seconds")
	}
	for _, e := range Registry() {
		e := e
		t.Run(strings.Join(e.IDs, "+"), func(t *testing.T) {
			tables, err := e.Run(Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) != len(e.IDs) {
				t.Fatalf("produced %d tables for ids %v", len(tables), e.IDs)
			}
			for i, tb := range tables {
				if tb.ID != e.IDs[i] {
					t.Errorf("table %d id %q, want %q", i, tb.ID, e.IDs[i])
				}
				if len(tb.Rows) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				if len(tb.Cols) == 0 {
					t.Errorf("table %s has no columns", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Cols) {
						t.Errorf("table %s row width %d != %d cols", tb.ID, len(row), len(tb.Cols))
					}
				}
			}
		})
	}
}

func TestRunIDsWithCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := RunIDs([]string{"T2"}, Options{Quick: true, CSVDir: dir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "T2.csv"))
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.Contains(string(data), "qsync") {
		t.Fatal("csv content suspect")
	}
	if !strings.Contains(buf.String(), "T2") {
		t.Fatal("table not rendered")
	}
}

func TestRunIDsDeduplicates(t *testing.T) {
	// F1 and F2 come from the same sweep; requesting both must run once.
	var buf bytes.Buffer
	err := RunIDs([]string{"T1", "T1"}, Options{Quick: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "T1 — ") != 1 {
		t.Fatalf("T1 rendered %d times", strings.Count(buf.String(), "T1 — "))
	}
}

// TestColumnFooter: with a progress writer, RunIDs follows each
// experiment with one footer line naming every sweep column and its
// summed host seconds, and the tables stay byte-identical to a run
// without one. F6 is a runMatrix sweep; F13 (rwSweep) assembles its
// table from its own cells, and so do T1 (one cell per lock) and F5,
// whose footer names each row's lock because its row labels carry
// spaces.
func TestColumnFooter(t *testing.T) {
	var lockNames, rwNames []string
	for _, li := range algosFor(Options{}, simsync.LockSet) {
		lockNames = append(lockNames, li.Name)
	}
	for _, ri := range algosFor(Options{}, simsync.RWLockSet) {
		rwNames = append(rwNames, ri.Name)
	}
	for _, tc := range []struct {
		id   string
		cols []string
	}{
		{"F6", lockNames},
		{"F13", rwNames},
		{"T1", lockNames},
		{"F5", []string{"tas-bo", "qsync"}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			var plain, verbose, progress bytes.Buffer
			if err := RunIDs([]string{tc.id}, Options{Quick: true}, &plain); err != nil {
				t.Fatal(err)
			}
			if err := RunIDs([]string{tc.id}, Options{Quick: true, Progress: &progress}, &verbose); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain.Bytes(), verbose.Bytes()) {
				t.Fatalf("tables changed under a progress writer:\n--- plain\n%s\n--- verbose\n%s", plain.String(), verbose.String())
			}
			const prefix = "-- host seconds per column:"
			var footers []string
			for _, line := range strings.Split(progress.String(), "\n") {
				if strings.HasPrefix(line, prefix) {
					footers = append(footers, strings.TrimPrefix(line, prefix))
				}
			}
			if len(footers) != 1 {
				t.Fatalf("got %d footer lines, want 1:\n%s", len(footers), progress.String())
			}
			var cols []string
			for _, entry := range strings.Split(footers[0], ",") {
				var name string
				var secs float64
				if _, err := fmt.Sscanf(entry, " %s %g", &name, &secs); err != nil || secs < 0 {
					t.Fatalf("malformed footer entry %q: %v", entry, err)
				}
				cols = append(cols, name)
			}
			if strings.Join(cols, " ") != strings.Join(tc.cols, " ") {
				t.Fatalf("footer names columns %v, want one entry per %s column %v", cols, tc.id, tc.cols)
			}
		})
	}
}
