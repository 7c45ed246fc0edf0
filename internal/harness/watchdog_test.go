package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

func TestWatchdogCellPassThrough(t *testing.T) {
	vals, err := watchdogCell(time.Second, func() ([]float64, error) {
		return []float64{42}, nil
	})
	if err != nil || len(vals) != 1 || vals[0] != 42 {
		t.Fatalf("got %v, %v", vals, err)
	}
	wantErr := errors.New("boom")
	if _, err := watchdogCell(time.Second, func() ([]float64, error) {
		return nil, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("error not passed through: %v", err)
	}
	// Disabled watchdog runs inline.
	vals, err = watchdogCell(0, func() ([]float64, error) { return []float64{7}, nil })
	if err != nil || vals[0] != 7 {
		t.Fatalf("disabled watchdog: %v, %v", vals, err)
	}
}

func TestWatchdogCellTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, err := watchdogCell(20*time.Millisecond, func() ([]float64, error) {
		<-block
		return []float64{1}, nil
	})
	if !errors.Is(err, errCellTimeout) {
		t.Fatalf("want errCellTimeout, got %v", err)
	}
}

func TestWatchdogCellRepanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "cell exploded" {
			t.Fatalf("panic not re-raised: %v", r)
		}
	}()
	watchdogCell(time.Second, func() ([]float64, error) { panic("cell exploded") })
}

// TestRunMatrixTimeoutCell: a wedged cell costs one "!timeout" table
// cell while the rest of the matrix completes with real values.
func TestRunMatrixTimeoutCell(t *testing.T) {
	algos := []string{"good", "wedged"}
	block := make(chan struct{})
	defer close(block)
	tables, err := runMatrixTimeout(Options{}, 30*time.Millisecond, algos,
		func(s string) string { return s },
		"x", []string{"0"},
		[]metricSpec{{ID: "WD", Title: "watchdog test"}},
		func(ai int, algo string, _ *machine.Pool) ([]float64, error) {
			if algo == "wedged" {
				<-block
			}
			return []float64{1}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 1 {
		t.Fatalf("unexpected shape: %+v", tables)
	}
	row := tables[0].Rows[0]
	joined := strings.Join(row, "|")
	if !strings.Contains(joined, "!timeout") {
		t.Fatalf("no !timeout cell in row %v", row)
	}
	if !strings.Contains(joined, "1") {
		t.Fatalf("good cell missing from row %v", row)
	}
}
