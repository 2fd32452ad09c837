package chaos

import (
	"time"

	"repro/internal/grin"
)

// splitmix64 advances the seed state and returns the next value of the
// stream — the standard 64-bit mixer, chosen over math/rand so schedules are
// stable across Go releases and reproducible from the seed alone.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Plan derives a deterministic fault schedule from a seed: for each site it
// draws one kind from kinds and a trigger call in [1, maxN]. The same
// (seed, sites, kinds, maxN) always yields the same schedule — the replay
// recipe is the seed in the Error message. Latency faults get a fixed small
// delay; tune explicitly via hand-written Faults when a test needs more.
func Plan(seed int64, sites []grin.Site, kinds []Kind, maxN int64) Options {
	if maxN <= 0 {
		maxN = 1
	}
	state := uint64(seed)
	faults := make([]Fault, 0, len(sites))
	for _, s := range sites {
		k := kinds[splitmix64(&state)%uint64(len(kinds))]
		n := int64(splitmix64(&state)%uint64(maxN)) + 1
		f := Fault{Site: s, Kind: k, N: n}
		if k == KindLatency {
			f.Latency = time.Millisecond
		}
		faults = append(faults, f)
	}
	return Options{Seed: seed, Faults: faults}
}
