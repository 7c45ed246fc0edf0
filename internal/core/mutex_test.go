package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func modes() []WaitMode { return []WaitMode{SpinPark, Spin} }

func TestMutexSingleGoroutine(t *testing.T) {
	var m Mutex
	m.Lock()
	m.Unlock()
	m.Lock()
	m.Unlock()
}

func TestMutexMutualExclusionStress(t *testing.T) {
	for _, mode := range modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			m := &Mutex{Mode: mode}
			// Lost updates show at full size; under the race detector a
			// tenth of the iterations races the same code paths.
			const workers = 16
			iters := 2000
			if raceEnabled {
				iters = 200
			}
			counter := 0
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						m.Lock()
						counter++ // not atomic: the lock must protect it
						m.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("counter = %d, want %d (lost updates)", counter, workers*iters)
			}
		})
	}
}

func TestMutexAsSyncLocker(t *testing.T) {
	var m Mutex
	var l sync.Locker = &m
	l.Lock()
	l.Unlock()
}

func TestMutexTryLock(t *testing.T) {
	var m Mutex
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	m.Unlock()
}

func TestMutexTryLockContended(t *testing.T) {
	var m Mutex
	m.Lock()
	done := make(chan bool)
	go func() { done <- m.TryLock() }()
	if <-done {
		t.Fatal("TryLock from another goroutine succeeded while held")
	}
	m.Unlock()
}

func TestMutexUnlockOfUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unlocked Mutex did not panic")
		}
	}()
	var m Mutex
	m.Unlock()
}

func TestMutexFIFOHandoff(t *testing.T) {
	// One holder, then a strict chain of waiters; order of wakeups must
	// match order of Lock calls. We sequence the Lock calls with a relay
	// channel so the queue order is deterministic.
	var m Mutex
	m.Lock()
	const waiters = 8
	order := make(chan int, waiters)
	enqueued := make(chan struct{})
	for i := 0; i < waiters; i++ {
		i := i
		go func() {
			enqueued <- struct{}{}
			m.Lock()
			order <- i
			m.Unlock()
		}()
		<-enqueued
		// Give the goroutine time to actually reach the queue swap. The
		// sleep only sequences test setup; correctness never depends on it.
		time.Sleep(2 * time.Millisecond)
	}
	m.Unlock()
	for want := 0; want < waiters; want++ {
		got := <-order
		if got != want {
			t.Fatalf("hand-off order: got waiter %d at position %d", got, want)
		}
	}
}

func TestMutexOversubscribedSpinPark(t *testing.T) {
	// Far more goroutines than CPUs: SpinPark must still make progress
	// quickly because parked waiters consume nothing.
	m := &Mutex{Mode: SpinPark}
	workers := runtime.GOMAXPROCS(0) * 8
	const iters = 200
	var wg sync.WaitGroup
	counter := 0
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("oversubscribed run took %v; park path suspect", d)
	}
}

func TestMutexHandoffLatencySane(t *testing.T) {
	// A ping-pong between two goroutines must complete promptly in both
	// modes; this catches lost-wakeup bugs that stress tests can mask.
	for _, mode := range modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			m := &Mutex{Mode: mode}
			var other sync.WaitGroup
			other.Add(1)
			go func() {
				defer other.Done()
				for i := 0; i < 5000; i++ {
					m.Lock()
					m.Unlock()
				}
			}()
			for i := 0; i < 5000; i++ {
				m.Lock()
				m.Unlock()
			}
			done := make(chan struct{})
			go func() { other.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("ping-pong did not finish; probable lost wakeup")
			}
		})
	}
}

func TestMutexManyLocksIndependent(t *testing.T) {
	// Distinct mutexes must not interfere through the shared node pool.
	const locks = 32
	ms := make([]Mutex, locks)
	counters := make([]int, locks)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := (seed + i) % locks
				ms[k].Lock()
				counters[k]++
				ms[k].Unlock()
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 8*3000 {
		t.Fatalf("total = %d, want %d", total, 8*3000)
	}
}
