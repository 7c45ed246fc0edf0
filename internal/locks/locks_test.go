package locks

import (
	"sync"
	"testing"
	"time"
)

// Every registered lock must provide mutual exclusion under contention.
func TestAllLocksMutualExclusion(t *testing.T) {
	for _, info := range All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			workers, iters := 12, 1500
			if raceEnabled {
				workers, iters = 6, 150
			}
			l := info.New(workers)
			counter := 0
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l.Lock()
						counter++
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("%s lost updates: %d != %d", info.Name, counter, workers*iters)
			}
		})
	}
}

func TestAllLocksUncontended(t *testing.T) {
	for _, info := range All() {
		l := info.New(4)
		for i := 0; i < 100; i++ {
			l.Lock()
			l.Unlock()
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("ticket"); !ok {
		t.Fatal("ticket missing from registry")
	}
	if _, ok := ByName("bogus"); ok {
		t.Fatal("bogus lock found")
	}
}

func TestTicketLockFIFO(t *testing.T) {
	// Sequenced waiters on a ticket lock must be served in order.
	var l TicketLock
	l.Lock()
	const waiters = 6
	order := make(chan int, waiters)
	ready := make(chan struct{})
	for i := 0; i < waiters; i++ {
		i := i
		go func() {
			ready <- struct{}{}
			l.Lock()
			order <- i
			l.Unlock()
		}()
		<-ready
		time.Sleep(2 * time.Millisecond)
	}
	l.Unlock()
	for want := 0; want < waiters; want++ {
		if got := <-order; got != want {
			t.Fatalf("ticket order: waiter %d at position %d", got, want)
		}
	}
}

func TestAndersonLockRingWrap(t *testing.T) {
	// More sequential acquisitions than slots: the ring must wrap cleanly.
	l := NewAndersonLock(4)
	for i := 0; i < 100; i++ {
		l.Lock()
		l.Unlock()
	}
}

func TestAndersonLockMinimumSize(t *testing.T) {
	l := NewAndersonLock(0) // clamps to 1
	l.Lock()
	l.Unlock()
}

func TestBackoffLockParamClamping(t *testing.T) {
	l := NewBackoffLock(0, -5)
	l.Lock()
	l.Unlock()
}

func TestLocksWorkOversubscribed(t *testing.T) {
	// 4x CPUs; locks with Gosched in their spin loops must make progress.
	for _, name := range []string{"ttas", "ticket", "qsync-park"} {
		name := name
		t.Run(name, func(t *testing.T) {
			info, _ := ByName(name)
			workers, iters := 64, 300
			if raceEnabled {
				workers, iters = 16, 60
			}
			l := info.New(workers)
			counter := 0
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l.Lock()
						counter++
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("lost updates: %d != %d", counter, workers*iters)
			}
			if d := time.Since(start); d > 60*time.Second {
				t.Fatalf("oversubscribed %s took %v", name, d)
			}
		})
	}
}
