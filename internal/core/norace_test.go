//go:build !race

package core

// raceEnabled is false in normal builds; see race_test.go.
const raceEnabled = false
