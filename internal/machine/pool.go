package machine

// Pool recycles machines across runs. A sweep worker owns one Pool and
// serves every (configuration × algorithm) cell from it: Get resets a
// cached machine to the requested configuration (bit-identical to a
// fresh one — see Reset) instead of allocating a machine per cell
// (~0.7 MB at the default heap sizes for 8 processors on the bus, most
// of it the event calendar; 5 MB for a 1,024-processor cluster), and
// Put returns the machine after the cell's measurements are read.
// Pooled and unpooled runs therefore produce the same results; the pool
// only removes the per-cell allocation cost.
//
// A nil *Pool is valid and means "allocate fresh": Get builds a new
// machine and Put does nothing, so runners take a pool argument without
// a nil check of their own.
//
// A Pool is not safe for concurrent use; parallel sweeps give each
// worker its own.
type Pool struct {
	free []*Machine
}

// Get returns a machine configured per cfg, reusing a pooled machine
// when one is available; a nil pool always builds a fresh one.
func (pl *Pool) Get(cfg Config) (*Machine, error) {
	if pl == nil || len(pl.free) == 0 {
		return New(cfg)
	}
	n := len(pl.free)
	m := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Put returns a machine to the pool for later reuse. The machine must
// not be used again by the caller; its simulated memory and statistics
// remain readable only until the next Get. On a nil pool Put does
// nothing.
func (pl *Pool) Put(m *Machine) {
	if pl == nil || m == nil {
		return
	}
	pl.free = append(pl.free, m)
}
