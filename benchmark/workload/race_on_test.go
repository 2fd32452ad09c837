//go:build race

package workload

// raceDetector reports that the tests run under the race detector.
const raceDetector = true
