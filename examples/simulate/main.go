// Simulate: using the multiprocessor substrate directly. Builds a tiny
// custom synchronization algorithm against the simulated ISA, runs it on
// every registered machine topology — the coherent bus, the flat NUMA
// machine, and the two-level cluster machine — and prints the counters
// the 1991 methodology cares about. A template for experimenting with
// your own algorithms and machine shapes.
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// A deliberately naive algorithm to study: a "polite" test&set that
// waits a fixed delay between attempts. Era folklore said politeness
// should help; the counters show what it actually buys compared to the
// mechanism.
type politeTAS struct {
	l machine.Addr
}

func (t *politeTAS) Acquire(p *machine.Proc) {
	for p.TestAndSet(t.l) != 0 {
		p.Delay(100) // fixed politeness
	}
}

func (t *politeTAS) Release(p *machine.Proc) {
	p.Store(t.l, 0)
}

func main() {
	fmt.Println("== custom algorithm on the simulated multiprocessor ==")
	fmt.Println()

	for _, tp := range []topo.Topology{topo.Bus, topo.NUMA, topo.Cluster} {
		fmt.Printf("--- %s machine, 16 processors, 50 acquisitions each ---\n", tp.Name())
		for _, tc := range []struct {
			name string
			make simsync.LockMaker
		}{
			{"polite-tas", func(m *machine.Machine) simsync.Lock {
				return &politeTAS{l: m.AllocShared(1)}
			}},
			{"qsync", simsync.NewQSync},
		} {
			res, err := simsync.RunLockIn(nil,
				machine.Config{Procs: 16, Topo: tp, Seed: 42},
				simsync.LockInfo{Name: tc.name, Make: tc.make},
				simsync.LockOpts{Iters: 50, CS: 25, Think: 50, CheckMutex: true},
			)
			if err != nil {
				panic(err)
			}
			fmt.Printf("%12s: %7.0f cycles/acq  %6.2f %s/acq  (%d events simulated)\n",
				tc.name, res.CyclesPerAcq, res.TrafficPerAcq, tp.Discipline().Unit(), res.Stats.Events)
		}
		fmt.Println()
	}
	fmt.Println("politeness lowers traffic versus raw test&set but still scales with P;")
	fmt.Println("the mechanism's queue keeps both cycles and traffic per operation flat.")
	fmt.Println("mutual exclusion was verified by the harness on every run above.")
}
