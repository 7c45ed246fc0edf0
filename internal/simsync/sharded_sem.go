package simsync

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// shardedSem is the counting semaphore built on the same placement
// idea as the sharded counter: the permit pool is striped across the
// machine's locality groups, each stripe living in its group's home
// module (topo.Topology.GroupHome). V returns a permit to the caller's
// own stripe — a cheap, contention-free fetch&add. P tries the
// caller's stripe first and then sweeps the others, so a permit
// released anywhere can satisfy a waiter anywhere (no lost permits),
// but in the common producer/consumer steady state permits circulate
// within a group and the expensive links stay quiet. On a flat
// machine every processor is its own group and the semaphore
// degenerates to per-processor permit caching with stealing.
//
// A stripe is decremented with a load + compare&swap pair (the era's
// optimistic "decrement if positive"); a failed CAS just moves the
// sweep along — some other processor got the permit, which is progress
// globally. An empty sweep backs off for a fixed, draw-free delay
// before rescanning, keeping the wait loop deterministic and bounded
// per round.
//
// P is a continuation script (machine.RunScript), one per processor,
// encoding this Go poll loop op for op:
//
//	for {
//		for k := 0; k < groups; k++ {
//			stripe := stripes[(start+k)%groups]
//			v := p.Load(stripe)
//			if v > 0 && p.CompareAndSwap(stripe, v, v-1) {
//				return
//			}
//		}
//		p.Delay(semScanBackoff)
//	}
//
// The loop itself, verbatim, is the closure twin in twins_test.go.
type shardedSem struct {
	stripes []machine.Addr
	group   []int32 // processor -> starting stripe
	groups  int
	sweeps  []semSweep // per processor: P's sweep script
}

// The P script's ops, by pc.
const (
	semProbe = iota // ContLoad of the sweep's current stripe
	semTest         // ContBranch: a permit shows (CAS it), or move on
	semCAS          // ContCAS of the stripe from the seen count to one less
	semTaken        // ContBranch: acquired, or move on
	semPause        // ContDelay of semScanBackoff after an empty sweep
	semLoop         // ContBranch: sweep again
	semOps
)

// semSweep is one processor's P script and its sweep position. P
// resets the position on entry, so a processor reborn mid-sweep starts
// its next P clean.
type semSweep struct {
	s     *shardedSem
	start int // the caller's own stripe
	k     int // sweep position: stripe (start+k) % groups is probed next
	ops   [semOps]machine.ContOp
}

// semScanBackoff is the fixed pause between permit sweeps. Draw-free
// (no RNG), so waits stay cheap for the engine and identical across
// runs by construction.
const semScanBackoff = sim.Time(24)

// NewShardedSemaphore builds the group-striped counting semaphore with
// the initial permits distributed round-robin across stripes.
func NewShardedSemaphore(m *machine.Machine, permits int) Semaphore {
	t := m.Topo()
	procs := m.Procs()
	groups := topo.Groups(t, procs)
	s := &shardedSem{
		stripes: make([]machine.Addr, groups),
		group:   make([]int32, procs),
		groups:  groups,
	}
	for g := 0; g < groups; g++ {
		s.stripes[g] = m.AllocLocal(t.GroupHome(g, procs), 1)
	}
	s.sweeps = make([]semSweep, procs)
	for p := 0; p < procs; p++ {
		s.group[p] = int32(t.Group(p, procs))
		w := &s.sweeps[p]
		w.s, w.start = s, int(s.group[p])
		w.ops = [semOps]machine.ContOp{
			semProbe: {Kind: machine.ContLoad},
			semTest:  {Kind: machine.ContBranch, Branch: w.test},
			semCAS:   {Kind: machine.ContCAS},
			semTaken: {Kind: machine.ContBranch, Branch: w.taken},
			semPause: {Kind: machine.ContDelay, Dur: semScanBackoff},
			semLoop:  {Kind: machine.ContBranch, Branch: toTop},
		}
	}
	for i := 0; i < permits; i++ {
		g := s.stripes[i%groups]
		m.Poke(g, m.Peek(g)+1)
	}
	return s
}

func (s *shardedSem) P(p *machine.Proc) {
	w := &s.sweeps[p.ID()]
	w.k = 0
	w.aim()
	p.RunScript(w.ops[:])
}

// aim points the probe at the sweep's current stripe.
func (w *semSweep) aim() {
	w.ops[semProbe].Addr = w.s.stripes[(w.start+w.k)%w.s.groups]
}

// test judges the probed stripe's permit count v.
func (w *semSweep) test(_ *machine.Proc, v machine.Word) int {
	if v > 0 {
		op := &w.ops[semCAS]
		op.Addr, op.Val, op.New = w.ops[semProbe].Addr, v, v-1
		return semCAS
	}
	return w.next()
}

// taken ends the script on a won permit and moves the sweep on after a
// lost CAS.
func (w *semSweep) taken(_ *machine.Proc, ok machine.Word) int {
	if ok != 0 {
		return semOps
	}
	return w.next()
}

// next moves the sweep to the following stripe; past the last one it
// rewinds to the caller's own stripe and pauses before the next sweep.
func (w *semSweep) next() int {
	w.k++
	pc := semProbe
	if w.k == w.s.groups {
		w.k, pc = 0, semPause
	}
	w.aim()
	return pc
}

func (s *shardedSem) V(p *machine.Proc) {
	p.FetchAdd(s.stripes[s.group[p.ID()]], 1)
}
