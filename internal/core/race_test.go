//go:build race

package core

// raceEnabled scales stress-test sizes down under the race detector.
// Instrumented atomics make spin loops far slower, and goroutines that
// outnumber the CPUs spin through whole scheduler slices: the mutex
// stress test's pure-spin leg ran over a minute at full size on two
// CPUs, telling the detector nothing the small run does not.
const raceEnabled = true
