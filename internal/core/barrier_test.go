package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierBasicEpisodes(t *testing.T) {
	for _, mode := range modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const parties = 8
			const episodes = 200
			b := NewBarrier(parties, mode)
			// arrivals[e] counts parties that arrived at episode e; when
			// any party leaves episode e the count must be full.
			arrivals := make([]atomic.Int32, episodes)
			var bad atomic.Int32
			var wg sync.WaitGroup
			for g := 0; g < parties; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for e := 0; e < episodes; e++ {
						arrivals[e].Add(1)
						b.Wait()
						if arrivals[e].Load() != parties {
							bad.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d early releases", bad.Load())
			}
			if b.Episodes() != episodes {
				t.Fatalf("Episodes = %d, want %d", b.Episodes(), episodes)
			}
		})
	}
}

func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1, SpinPark)
	for i := 0; i < 10; i++ {
		b.Wait() // must never block
	}
	if b.Episodes() != 10 {
		t.Fatalf("Episodes = %d, want 10", b.Episodes())
	}
}

func TestBarrierInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0, SpinPark)
}

func TestBarrierOversubscribed(t *testing.T) {
	// Many more parties than CPUs: SpinPark barrier must still cycle.
	const parties = 64
	const episodes = 50
	b := NewBarrier(parties, SpinPark)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < parties; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				b.Wait()
			}
		}()
	}
	wg.Wait()
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("oversubscribed barrier took %v", d)
	}
}

// TestBarrierSpinParkPartyCounts: no early release in SpinPark mode at
// the small and non-power-of-two party counts the tests above skip.
func TestBarrierSpinParkPartyCounts(t *testing.T) {
	for _, parties := range []int{2, 3, 5, 13} {
		t.Run(itoa(parties), func(t *testing.T) {
			const episodes = 150
			b := NewBarrier(parties, SpinPark)
			arrivals := make([]atomic.Int32, episodes)
			var bad atomic.Int32
			var wg sync.WaitGroup
			for g := 0; g < parties; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for e := 0; e < episodes; e++ {
						arrivals[e].Add(1)
						b.Wait()
						if arrivals[e].Load() != int32(parties) {
							bad.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d early releases with %d parties", bad.Load(), parties)
			}
		})
	}
}

// TestBarrierPhasedVisibility: in a phased computation, every party
// sees all of the previous phase's writes once it passes the barrier.
func TestBarrierPhasedVisibility(t *testing.T) {
	const parties, phases = 8, 40
	spinPark := NewBarrier(parties, SpinPark)
	tree := NewTreeBarrier(parties)
	for _, tc := range []struct {
		name string
		wait func(id int)
	}{
		{"spin-park", func(int) { spinPark.Wait() }},
		{"tree", tree.Wait},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells := make([]atomic.Int64, parties)
			var bad atomic.Int32
			var wg sync.WaitGroup
			for id := 0; id < parties; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for ph := 1; ph <= phases; ph++ {
						cells[id].Store(int64(ph))
						tc.wait(id)
						for j := range cells {
							if cells[j].Load() < int64(ph) {
								bad.Add(1)
							}
						}
						tc.wait(id) // no writer starts phase ph+1 before every check of ph
					}
				}(id)
			}
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d stale reads across phases", bad.Load())
			}
		})
	}
}

func TestTreeBarrierEpisodes(t *testing.T) {
	for _, parties := range []int{1, 2, 3, 5, 8, 13, 21} {
		parties := parties
		t.Run(itoa(parties), func(t *testing.T) {
			const episodes = 100
			b := NewTreeBarrier(parties)
			arrivals := make([]atomic.Int32, episodes)
			var bad atomic.Int32
			var wg sync.WaitGroup
			for id := 0; id < parties; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for e := 0; e < episodes; e++ {
						arrivals[e].Add(1)
						b.Wait(id)
						if arrivals[e].Load() != int32(parties) {
							bad.Add(1)
						}
					}
				}(id)
			}
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d early releases with %d parties", bad.Load(), parties)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestTreeBarrierIDValidation(t *testing.T) {
	b := NewTreeBarrier(4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range id did not panic")
		}
	}()
	b.Wait(4)
}

func TestTreeBarrierParties(t *testing.T) {
	if NewTreeBarrier(7).Parties() != 7 {
		t.Fatal("Parties mismatch")
	}
}

func TestTreeBarrierInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTreeBarrier(0) did not panic")
		}
	}()
	NewTreeBarrier(0)
}

func TestWaitModeString(t *testing.T) {
	if SpinPark.String() != "spin-park" || Spin.String() != "spin" {
		t.Fatal("WaitMode.String broken")
	}
	if WaitMode(99).String() == "" {
		t.Fatal("unknown WaitMode should still print something")
	}
}
