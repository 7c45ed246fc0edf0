package harness

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/machine"
)

// TestForEachCellOrder pins the dispatch rule: a parallel call hands
// cells out from the last index down, on one worker as on several, and
// a sequential call (real-runtime sweeps, SC1) runs them in index order.
func TestForEachCellOrder(t *testing.T) {
	const total = 7
	visit := func(parallel bool) []int {
		var mu sync.Mutex
		var got []int
		err := Options{}.forEachCell(parallel, []string{"a", "b", "c"}, total, func(i int, _ *machine.Pool) error {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	desc, asc := make([]int, total), make([]int, total)
	for i := range asc {
		asc[i], desc[i] = i, total-1-i
	}
	if got := visit(true); !slices.Equal(got, desc) {
		t.Errorf("parallel on one worker visited %v, want %v", got, desc)
	}
	if got := visit(false); !slices.Equal(got, asc) {
		t.Errorf("sequential visited %v, want %v", got, asc)
	}

	runtime.GOMAXPROCS(2)
	got := visit(true)
	slices.Sort(got)
	if !slices.Equal(got, asc) {
		t.Errorf("parallel on two workers visited %v, want each of 0..%d once", got, total-1)
	}
}

// TestTablesIndependentOfWorkers: quick T1, F5 and F3 render the same
// bytes whether their cells run on one worker or two, since every cell
// writes its own result slot and tables are assembled in canonical
// order.
func TestTablesIndependentOfWorkers(t *testing.T) {
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var b bytes.Buffer
		if err := RunIDs([]string{"T1", "F5", "F3"}, Options{Quick: true}, &b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if one, two := render(1), render(2); !bytes.Equal(one, two) {
		t.Fatalf("tables differ between one and two workers:\n--- one\n%s\n--- two\n%s", one, two)
	}
}
