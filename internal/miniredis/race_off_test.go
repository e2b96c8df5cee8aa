//go:build !race

package miniredis

// raceDetectorEnabled reports whether the race detector is on; allocation
// pins are skipped under it, like the root package's TestReadPathsZeroAlloc.
const raceDetectorEnabled = false
