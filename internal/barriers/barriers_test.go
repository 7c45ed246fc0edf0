package barriers

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// Every barrier must be safe (no early release) for assorted party
// counts, including non-powers-of-two.
func TestAllBarriersSafety(t *testing.T) {
	for _, info := range All() {
		for _, parties := range []int{1, 2, 3, 5, 8, 13} {
			info, parties := info, parties
			t.Run(info.Name+"/"+strconv.Itoa(parties), func(t *testing.T) {
				t.Parallel()
				const episodes = 150
				b := info.New(parties)
				if b.Parties() != parties {
					t.Fatalf("Parties = %d, want %d", b.Parties(), parties)
				}
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
					t.Fatalf("%s released %d waiters early", info.Name, bad.Load())
				}
			})
		}
	}
}

func TestNamesMatchRegistry(t *testing.T) {
	for _, info := range All() {
		b := info.New(2)
		if b.Name() != info.Name {
			t.Errorf("registry %q constructs barrier named %q", info.Name, b.Name())
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("dissemination"); !ok {
		t.Fatal("dissemination missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus barrier found")
	}
}

func TestDisseminationInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDissemination(0) did not panic")
		}
	}()
	NewDissemination(0)
}

func TestTournamentInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTournament(0) did not panic")
		}
	}()
	NewTournament(0)
}

// Phased computation integration check: every party must observe the
// full previous phase's writes after each barrier.
func TestBarrierPhasedVisibility(t *testing.T) {
	for _, info := range All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			const parties = 8
			const phases = 40
			b := info.New(parties)
			cells := make([]atomic.Int64, parties)
			var bad atomic.Int32
			var wg sync.WaitGroup
			for id := 0; id < parties; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for ph := 1; ph <= phases; ph++ {
						cells[id].Store(int64(ph))
						b.Wait(id)
						for j := 0; j < parties; j++ {
							if cells[j].Load() < int64(ph) {
								bad.Add(1)
							}
						}
						b.Wait(id) // second barrier so writers don't race ahead
					}
				}(id)
			}
			wg.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%s: %d stale reads across phases", info.Name, bad.Load())
			}
		})
	}
}
