package machine

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Continuation scripts (cont.go) must be indistinguishable from the
// same program issued through Proc calls: every Stats field except
// InlineDispatches matches, and so do memory and host-side effects.
// Each case below is one program written twice — as a per-processor
// op slice and as the Go code it encodes — and run by contending
// processors that share the case's words.

// contCase is one program. build returns processor pid's script and
// the Go code it encodes; words are the case's four shared words, and
// host is a per-processor host counter both forms may bump.
type contCase struct {
	name  string
	build func(words Addr, pid int, host []int) (ops []ContOp, prog func(p *Proc))
}

func contCases() []contCase {
	return []contCase{
		{"load", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			return []ContOp{{Kind: ContLoad, Addr: w}},
				func(p *Proc) { p.Load(w) }
		}},
		{"delay", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			return []ContOp{{Kind: ContDelay, Dur: 30}},
				func(p *Proc) { p.Delay(30) }
		}},
		{"expdelay", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			return []ContOp{{Kind: ContExpDelay, Dur: 40}},
				func(p *Proc) { p.Delay(p.RNG().ExpTime(40)) }
		}},
		{"store", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			v := Word(pid + 1)
			return []ContOp{{Kind: ContStore, Addr: w, Val: v}},
				func(p *Proc) { p.Store(w, v) }
		}},
		{"storeacc", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			return []ContOp{{Kind: ContLoad, Addr: w}, {Kind: ContDelay, Dur: 5}, {Kind: ContStoreAcc, Addr: w, Val: 1}},
				func(p *Proc) {
					v := p.Load(w)
					p.Delay(5)
					p.Store(w, v+1)
				}
		}},
		{"call", func(w Addr, pid int, host []int) ([]ContOp, func(*Proc)) {
			bump := func(p *Proc) { host[p.ID()]++ }
			return []ContOp{{Kind: ContDelay, Dur: 9}, {Kind: ContCall, Fn: bump}, {Kind: ContLoad, Addr: w}},
				func(p *Proc) {
					p.Delay(9)
					bump(p)
					p.Load(w)
				}
		}},
		// An atomic increment by load and compare&swap: the CAS
		// succeeds or, when another processor got in between, fails,
		// and the branch loops back (host counts the failures). The
		// first branch rewrites the CAS's operands from the load.
		{"cas-loop", func(w Addr, pid int, host []int) ([]ContOp, func(*Proc)) {
			ops := make([]ContOp, 4)
			ops[0] = ContOp{Kind: ContLoad, Addr: w}
			ops[1] = ContOp{Kind: ContBranch, Branch: func(_ *Proc, v Word) int {
				ops[2].Val, ops[2].New = v, v+1
				return 2
			}}
			ops[2] = ContOp{Kind: ContCAS, Addr: w}
			ops[3] = ContOp{Kind: ContBranch, Branch: func(p *Proc, ok Word) int {
				if ok == 0 {
					host[p.ID()]++
					return 0
				}
				return len(ops)
			}}
			return ops, func(p *Proc) {
				for {
					v := p.Load(w)
					if p.CompareAndSwap(w, v, v+1) {
						return
					}
					host[p.ID()]++
				}
			}
		}},
		// A CAS whose expected value never matches: always fails.
		{"cas-fail", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			return []ContOp{{Kind: ContCAS, Addr: w + 1, Val: 1 << 40, New: 7}},
				func(p *Proc) { p.CompareAndSwap(w+1, 1<<40, 7) }
		}},
		// A forward jump: the store at pc 2 runs only when the loaded
		// value is odd, and pc 4 always leaves it odd again.
		{"branch-skip", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			even, odd := Word(2*(pid+1)), Word(2*pid+1)
			ops := []ContOp{
				{Kind: ContLoad, Addr: w},
				{Kind: ContBranch, Branch: func(_ *Proc, v Word) int {
					if v&1 != 0 {
						return 2
					}
					return 3
				}},
				{Kind: ContStore, Addr: w, Val: even},
				{Kind: ContDelay, Dur: 7},
				{Kind: ContStore, Addr: w, Val: odd},
			}
			return ops, func(p *Proc) {
				if p.Load(w)&1 != 0 {
					p.Store(w, even)
				}
				p.Delay(7)
				p.Store(w, odd)
			}
		}},
		// An early end: on every third value the branch returns
		// len(ops), skipping the trailing delay and store.
		{"branch-end", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			ops := make([]ContOp, 5)
			ops[0] = ContOp{Kind: ContLoad, Addr: w}
			ops[1] = ContOp{Kind: ContStoreAcc, Addr: w, Val: 1}
			ops[2] = ContOp{Kind: ContBranch, Branch: func(_ *Proc, v Word) int {
				if v%3 == 0 {
					return len(ops)
				}
				return 3
			}}
			ops[3] = ContOp{Kind: ContDelay, Dur: 11}
			ops[4] = ContOp{Kind: ContStore, Addr: w + 2, Val: Word(pid)}
			return ops, func(p *Proc) {
				v := p.Load(w)
				p.Store(w, v+1)
				if v%3 == 0 {
					return
				}
				p.Delay(11)
				p.Store(w+2, Word(pid))
			}
		}},
		// A proportional-backoff poll, ticket-bo's wait: processors
		// take turns on w in pid order. Each loads w and, until its
		// turn shows, delays in proportion to the distance; the branch
		// either leaves the poll for the store that passes the turn on
		// or rewrites the delay's Dur from the loaded value. host
		// counts the delays.
		{"backoff-poll", func(w Addr, pid int, host []int) ([]ContOp, func(*Proc)) {
			procs := Word(len(host))
			turn := Word(pid)
			ops := make([]ContOp, 5)
			ops[0] = ContOp{Kind: ContLoad, Addr: w}
			ops[1] = ContOp{Kind: ContBranch, Branch: func(p *Proc, v Word) int {
				if v == turn {
					turn += procs
					return 4
				}
				host[p.ID()]++
				ops[2].Dur = sim.Time(turn-v) * 3
				return 2
			}}
			ops[2] = ContOp{Kind: ContDelay}
			ops[3] = ContOp{Kind: ContBranch, Branch: func(*Proc, Word) int { return 0 }}
			ops[4] = ContOp{Kind: ContStoreAcc, Addr: w, Val: 1}
			return ops, func(p *Proc) {
				for {
					v := p.Load(w)
					if v == turn {
						turn += procs
						p.Store(w, v+1)
						return
					}
					host[p.ID()]++
					p.Delay(sim.Time(turn-v) * 3)
				}
			}
		}},
		// The swaps leave the old value in the accumulator, which the
		// next op stores.
		{"fetchstore", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			v := Word(pid + 1)
			return []ContOp{{Kind: ContFetchStore, Addr: w, Val: v}, {Kind: ContStoreAcc, Addr: w + 1}},
				func(p *Proc) {
					old := p.FetchStore(w, v)
					p.Store(w+1, old)
				}
		}},
		{"fetchadd", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			return []ContOp{{Kind: ContFetchAdd, Addr: w, Val: 3}, {Kind: ContStoreAcc, Addr: w + 2, Val: 1}},
				func(p *Proc) {
					old := p.FetchAdd(w, 3)
					p.Store(w+2, old+1)
				}
		}},
		// Spin locks on w+3: acquire by a ContSpin, hold, release.
		{"spin-tas", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			return spinLockCase(w+3, SpinTASOp(w+3, Backoff{}, 0), func(p *Proc) { p.SpinTAS(w+3, Backoff{}) })
		}},
		{"spin-tas-bo", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			bo := Backoff{Base: 16, Cap: 256, PropJitter: true}
			return spinLockCase(w+3, SpinTASOp(w+3, bo, 0), func(p *Proc) { p.SpinTAS(w+3, bo) })
		}},
		{"spin-ttas", func(w Addr, pid int, _ []int) ([]ContOp, func(*Proc)) {
			return spinLockCase(w+3, SpinTTASOp(w+3), func(p *Proc) { p.SpinTTAS(w + 3) })
		}},
		// A bounded test&set spin: a timed-out wait (a non-zero
		// accumulator) skips the critical section, and host counts it.
		{"spin-tas-deadline", func(w Addr, pid int, host []int) ([]ContOp, func(*Proc)) {
			bo := Backoff{Base: 16, Cap: 1024}
			ops := []ContOp{
				SpinTASOp(w+3, bo, 90),
				{Kind: ContBranch, Branch: func(p *Proc, v Word) int {
					if v != 0 {
						host[p.ID()]++
						return 4
					}
					return 2
				}},
				{Kind: ContDelay, Dur: 25},
				{Kind: ContStore, Addr: w + 3},
			}
			return ops, func(p *Proc) {
				if !p.SpinTASFor(w+3, bo, p.Now()+90) {
					host[p.ID()]++
					return
				}
				p.Delay(25)
				p.Store(w+3, 0)
			}
		}},
		// Processors take turns on w in pid order: each read-spins until
		// w shows its turn (a branch aims the spin), then passes the
		// turn on with the spun value plus one.
		{"spin-read", func(w Addr, pid int, host []int) ([]ContOp, func(*Proc)) {
			procs := Word(len(host))
			turn := Word(pid)
			ops := make([]ContOp, 4)
			ops[0] = ContOp{Kind: ContBranch, Branch: func(*Proc, Word) int {
				ops[1].Val = turn
				return 1
			}}
			ops[1] = SpinReadOp(w, Pred{Op: PredEq, Want: turn})
			ops[2] = ContOp{Kind: ContCall, Fn: func(*Proc) { turn += procs }}
			ops[3] = ContOp{Kind: ContStoreAcc, Addr: w, Val: 1}
			return ops, func(p *Proc) {
				v := p.SpinUntilEq(w, turn)
				turn += procs
				p.Store(w, v+1)
			}
		}},
		// A script calling another twice: the callee, an atomic
		// increment loop, ends by a branch returning its length.
		{"sub", func(w Addr, pid int, host []int) ([]ContOp, func(*Proc)) {
			inc := make([]ContOp, 4)
			inc[0] = ContOp{Kind: ContLoad, Addr: w}
			inc[1] = ContOp{Kind: ContBranch, Branch: func(_ *Proc, v Word) int {
				inc[2].Val, inc[2].New = v, v+1
				return 2
			}}
			inc[2] = ContOp{Kind: ContCAS, Addr: w}
			inc[3] = ContOp{Kind: ContBranch, Branch: func(p *Proc, ok Word) int {
				if ok == 0 {
					host[p.ID()]++
					return 0
				}
				return len(inc)
			}}
			callee := func(*Proc) []ContOp { return inc }
			ops := []ContOp{
				{Kind: ContSub, Sub: callee},
				{Kind: ContDelay, Dur: 5},
				{Kind: ContSub, Sub: callee},
				{Kind: ContStoreAcc, Addr: w + 1, Val: 1},
			}
			incLoop := func(p *Proc) {
				for {
					v := p.Load(w)
					if p.CompareAndSwap(w, v, v+1) {
						return
					}
					host[p.ID()]++
				}
			}
			return ops, func(p *Proc) {
				incLoop(p)
				p.Delay(5)
				incLoop(p)
				p.Store(w+1, 2) // the accumulator returns holding the callee's winning CAS
			}
		}},
	}
}

// spinLockCase is a critical section on lock word l, acquired by the
// ContSpin acquire or the Go call spin.
func spinLockCase(l Addr, acquire ContOp, spin func(*Proc)) ([]ContOp, func(*Proc)) {
	return []ContOp{acquire, {Kind: ContDelay, Dur: 25}, {Kind: ContStore, Addr: l}},
		func(p *Proc) {
			spin(p)
			p.Delay(25)
			p.Store(l, 0)
		}
}

// TestContOpSize holds a ContOp to 64 bytes: scripts are op slices
// walked on every dispatch they advance, and a ContSpin's wait shares
// the other kinds' operand fields to stay that small.
func TestContOpSize(t *testing.T) {
	if n := unsafe.Sizeof(ContOp{}); n > 64 {
		t.Errorf("ContOp is %d bytes, want at most 64", n)
	}
}

// contRun is one run of a case: its stats, final words and host counts.
type contRun struct {
	stats Stats
	words [4]Word
	host  []int
}

// runContCase runs c on cfg, scripted or through Proc calls. Every
// processor thinks (a Go-side exponential delay), then runs the
// program, iters times.
func runContCase(t *testing.T, cfg Config, c contCase, scripted bool) contRun {
	t.Helper()
	const iters = 12
	m := newTestMachine(t, cfg)
	words := m.AllocShared(4)
	run := contRun{host: make([]int, cfg.Procs)}
	bodies := make([]func(*Proc), cfg.Procs)
	for pid := range bodies {
		ops, prog := c.build(words, pid, run.host)
		bodies[pid] = func(p *Proc) {
			for i := 0; i < iters; i++ {
				p.Delay(p.RNG().ExpTime(20))
				if scripted {
					p.RunScript(ops)
				} else {
					prog(p)
				}
			}
		}
	}
	if err := m.RunEach(bodies); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	run.stats = m.Stats()
	for i := range run.words {
		run.words[i] = m.Peek(words + Addr(i))
	}
	return run
}

// TestScriptMatchesProcCalls holds every op kind, run as a script by 2
// and 8 contending processors on bus, numa and cluster, to the program
// it encodes issued through Proc calls.
func TestScriptMatchesProcCalls(t *testing.T) {
	casFailures, backoffs := 0, 0
	for _, tp := range []topo.Topology{topo.Bus, topo.NUMA, topo.Cluster} {
		for _, procs := range []int{2, 8} {
			for _, c := range contCases() {
				name := fmt.Sprintf("%s/P%d/%s", tp.Name(), procs, c.name)
				cfg := Config{Procs: procs, Topo: tp, Seed: 3}
				script := runContCase(t, cfg, c, true)
				calls := runContCase(t, cfg, c, false)
				if calls.stats.InlineDispatches != 0 {
					t.Fatalf("%s: Proc-call run advanced %d dispatches in place", name, calls.stats.InlineDispatches)
				}
				if procs == 8 && script.stats.InlineDispatches == 0 {
					t.Errorf("%s: script run advanced no dispatch in place", name)
				}
				// The Proc-call run resumes its goroutine at every
				// dispatch the script run advanced in place, and passes
				// the baton at its own rate.
				if got, want := script.stats.InlineDispatches+script.stats.GoroutineDispatches, calls.stats.GoroutineDispatches; got != want {
					t.Errorf("%s: script run routed %d dispatches past the spin machine, Proc-call run %d", name, got, want)
				}
				script.stats.InlineDispatches, script.stats.GoroutineDispatches = 0, calls.stats.GoroutineDispatches
				script.stats.Handoffs = calls.stats.Handoffs
				if !reflect.DeepEqual(script.stats, calls.stats) {
					t.Errorf("%s: stats diverged:\n  script: %+v\n  calls:  %+v", name, script.stats, calls.stats)
				}
				if script.words != calls.words || !reflect.DeepEqual(script.host, calls.host) {
					t.Errorf("%s: effects diverged: script words %v host %v, calls words %v host %v",
						name, script.words, script.host, calls.words, calls.host)
				}
				for _, n := range script.host {
					switch c.name {
					case "cas-loop":
						casFailures += n
					case "backoff-poll":
						backoffs += n
					}
				}
			}
		}
	}
	if casFailures == 0 {
		t.Error("no cas-loop CAS ever failed: the failure path went unexercised")
	}
	if backoffs == 0 {
		t.Error("no backoff-poll delay ever ran: the rewritten Dur went unexercised")
	}
}

// A failed ContCAS is charged like a failed Proc.CompareAndSwap (see
// TestFailedCASCharged) and, like it, wakes no watcher: the processor
// spinning on the word stays registered until the real store.
func TestFailedScriptCASCharged(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, Topo: topo.Bus})
	a := m.AllocShared(1)
	var acc Word = 99
	var watched bool
	var txns uint64
	ops := []ContOp{
		{Kind: ContCall, Fn: func(p *Proc) { txns = p.stats.BusTxns }},
		{Kind: ContCAS, Addr: a, Val: 5, New: 9},
		{Kind: ContBranch, Branch: func(p *Proc, v Word) int {
			acc = v
			watched = p.m.watchHead[a] != 0
			txns = p.stats.BusTxns - txns
			return 3
		}},
	}
	err := m.RunEach([]func(*Proc){
		func(p *Proc) {
			p.Delay(200) // let the spinner park on a first
			p.RunScript(ops)
			p.Delay(50)
			p.Store(a, 1)
		},
		func(p *Proc) { p.SpinUntilEq(a, 1) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if acc != 0 {
		t.Errorf("failed ContCAS left %d in the accumulator, want 0", acc)
	}
	if txns == 0 {
		t.Error("failed ContCAS cost no bus transaction")
	}
	if !watched {
		t.Error("failed ContCAS woke the processor watching its word")
	}
	if got := m.Peek(a); got != 1 {
		t.Errorf("word = %d after the failed CAS and the store, want 1", got)
	}
}

// Re-running a built script — loads, a CAS, and branches that rewrite
// operands and loop — allocates nothing, whether its ops retire inline
// or wait for dispatches the drive loop advances in place.
func TestScriptRerunAllocatesNothing(t *testing.T) {
	m := newTestMachine(t, Config{Procs: 2, Topo: topo.Bus})
	w := m.AllocShared(1)
	ops := make([]ContOp, 5)
	ops[0] = ContOp{Kind: ContLoad, Addr: w}
	ops[1] = ContOp{Kind: ContBranch, Branch: func(_ *Proc, v Word) int {
		ops[2].Val, ops[2].New = v, v+1
		return 2
	}}
	ops[2] = ContOp{Kind: ContCAS, Addr: w}
	ops[3] = ContOp{Kind: ContBranch, Branch: func(_ *Proc, ok Word) int {
		if ok == 0 {
			return 0
		}
		return 4
	}}
	ops[4] = ContOp{Kind: ContDelay, Dur: 13}
	var allocs float64
	done := false
	err := m.RunEach([]func(*Proc){
		func(p *Proc) {
			allocs = testing.AllocsPerRun(200, func() { p.RunScript(ops) })
			done = true
		},
		func(p *Proc) {
			// Keep events pending so script ops cross them.
			for !done {
				p.Delay(5)
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Errorf("re-running a built script allocated %.1f times per run, want 0", allocs)
	}
	if m.Stats().InlineDispatches == 0 {
		t.Error("no script op crossed a pending event; the drive-loop path went unmeasured")
	}
}
