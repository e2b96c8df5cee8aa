//go:build !race

package cuckootrie_test

// raceDetectorEnabled reports whether the race detector is on: sync.Pool
// deliberately drops Puts at random under -race, so pooled-reuse
// assertions only hold without it.
const raceDetectorEnabled = false
