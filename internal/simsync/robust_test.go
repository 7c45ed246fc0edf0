package simsync

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Unit tests for the fault-tolerant primitives in robust.go, driving
// the timeout, takeover, and forced-release paths directly rather than
// through generated plans.

func robustMachine(t *testing.T, procs int) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{Procs: procs, Topo: topo.Bus, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTASDeadlineTimesOut: an AcquireWithin against a held latch burns
// its budget, returns false, and leaves the caller free to proceed; a
// later attempt after the release succeeds.
func TestTASDeadlineTimesOut(t *testing.T) {
	m := robustMachine(t, 2)
	lk := NewTASDeadlineSlice(m, 500, 100).(*deadlineTASLock)

	var firstTry bool
	var secondTry bool
	err := m.Run(func(p *machine.Proc) {
		switch p.ID() {
		case 0:
			lk.Acquire(p)
			p.Delay(2000)
			lk.Release(p)
		case 1:
			p.Delay(100) // let P0 take the latch first
			start := p.Now()
			firstTry = lk.AcquireWithin(p, 300)
			if got := p.Now() - start; got < 300 {
				t.Errorf("timed-out attempt burned only %d of its 300-cycle budget", got)
			}
			p.Delay(3000) // well past P0's release
			secondTry = lk.AcquireWithin(p, 300)
			if secondTry {
				lk.Release(p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstTry {
		t.Error("acquire against a held latch should time out")
	}
	if !secondTry {
		t.Error("acquire after release should succeed")
	}
}

// TestTASDeadlineBlockingRetries: the blocking Acquire is a loop of
// bounded slices, so it eventually wins and counts the expired slices.
func TestTASDeadlineBlockingRetries(t *testing.T) {
	m := robustMachine(t, 2)
	lk := NewTASDeadlineSlice(m, 200, 50).(*deadlineTASLock)

	err := m.Run(func(p *machine.Proc) {
		switch p.ID() {
		case 0:
			lk.Acquire(p)
			p.Delay(1500)
			lk.Release(p)
		case 1:
			p.Delay(100)
			lk.Acquire(p) // must slice-timeout a few times, then win
			lk.Release(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if lk.Timeouts() == 0 {
		t.Error("blocking acquire against a long hold should expire at least one slice")
	}
}

// TestLeaseTakeover: a holder that sits on the lock past its lease term
// (the simulation stand-in for a crash) is usurped at expiry, the
// usurper's identity lands in the owner bits, and the usurped holder's
// late Release is a no-op.
func TestLeaseTakeover(t *testing.T) {
	m := robustMachine(t, 2)
	lk := NewLeaseTerm(m, 500, 20).(*leaseLock)

	err := m.Run(func(p *machine.Proc) {
		switch p.ID() {
		case 0:
			lk.Acquire(p)
			p.Delay(2000) // sit far past the 500-cycle lease
			lk.Release(p) // usurped by now: must not free P1's lease
		case 1:
			p.Delay(100)
			lk.Acquire(p) // blocks until P0's lease expires, then usurps
			if owner := int(m.Peek(lk.word) >> leaseExpBits); owner != p.ID()+1 {
				t.Errorf("after takeover, owner bits = %d, want %d", owner, p.ID()+1)
			}
			p.Delay(3000) // outlive P0's late Release while still holding
			if owner := int(m.Peek(lk.word) >> leaseExpBits); owner != p.ID()+1 {
				t.Errorf("usurped holder's release stole the lock: owner bits = %d", owner)
			}
			lk.Release(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if lk.Takeovers() != 1 {
		t.Errorf("takeovers = %d, want 1", lk.Takeovers())
	}
	if got := m.Peek(lk.word); got != 0 {
		t.Errorf("lock word after final release = %#x, want 0", got)
	}
}

// TestLeaseNoTakeoverWhenHealthy: with releases well inside the term,
// the lease lock is a plain mutual-exclusion lock and never usurps.
func TestLeaseNoTakeoverWhenHealthy(t *testing.T) {
	m := robustMachine(t, 4)
	lk := NewLeaseTerm(m, 10000, 20).(*leaseLock)

	err := m.Run(func(p *machine.Proc) {
		for i := 0; i < 5; i++ {
			lk.Acquire(p)
			p.Delay(50)
			lk.Release(p)
			p.Delay(30)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if lk.Takeovers() != 0 {
		t.Errorf("healthy run recorded %d takeovers", lk.Takeovers())
	}
}

// TestStragglerBarrierTimeout: one processor lagging far past the wait
// budget forces the episode open — the punctual processors time out and
// proceed, and the run completes without deadlock.
func TestStragglerBarrierTimeout(t *testing.T) {
	m := robustMachine(t, 3)
	bar := NewStragglerBarrier(m, 400).(*stragglerBarrier)

	err := m.Run(func(p *machine.Proc) {
		if p.ID() == 2 {
			p.Delay(5000) // straggle far past everyone's budget
		}
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if bar.Timeouts() < 1 {
		t.Errorf("timeouts = %d, want at least 1 forced release", bar.Timeouts())
	}
}

// TestStragglerBarrierNoTimeouts: balanced arrivals over several
// episodes never consume the budget, so the barrier behaves like a
// plain sense barrier.
func TestStragglerBarrierNoTimeouts(t *testing.T) {
	m := robustMachine(t, 4)
	bar := NewStragglerBarrier(m, 100000).(*stragglerBarrier)

	err := m.Run(func(p *machine.Proc) {
		for e := 0; e < 4; e++ {
			p.Delay(sim.Time(10 * (p.ID() + 1)))
			bar.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bar.Timeouts() != 0 {
		t.Errorf("balanced run recorded %d timeouts", bar.Timeouts())
	}
}

// TestStragglerBarrierSurvivesCrash: a crashed processor stops arriving
// forever; every surviving wait from then on completes by budget expiry
// and the workload still finishes.
func TestStragglerBarrierSurvivesCrash(t *testing.T) {
	plan := fault.NewPlan("barrier-crash").WithCrash(2, 150)
	straggler := BarrierInfo{Name: "straggler", Make: func(m *machine.Machine) Barrier {
		return NewStragglerBarrier(m, 500)
	}}
	res, err := RunBarrierIn(nil,
		machine.Config{Procs: 3, Topo: topo.Bus, Seed: 5, Faults: plan, MaxSteps: 200_000},
		straggler, BarrierOpts{Episodes: 4, Work: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeOK {
		t.Errorf("outcome = %s, want ok (survivors must finish)", res.Outcome)
	}
	if res.Crashed != 1 {
		t.Errorf("crashed = %d, want 1", res.Crashed)
	}
	if res.Timeouts == 0 {
		t.Error("survivors should have forced episodes open after the crash")
	}
	// Two survivors times four episodes, plus whatever the victim got
	// through before t=150.
	if res.Completed < 8 {
		t.Errorf("episodes completed = %d, want at least 8", res.Completed)
	}
}
