package core

import (
	"math/rand"
	"os"
	"testing"
)

// TestEventDifferentialStress is the external-events dimension of the
// differential suite: the same randomized dependency graphs as
// TestPriorityDifferentialStress, but with every second task deferring
// its oracle unwind — the version bump and exclusivity exit — into an
// event completion (a raw goroutine for half of those, the timer
// queue for the rest). If the runtime released a parked task's
// dependencies at body return instead of at the final decrement, a
// successor would run while the predecessor's writer count is still
// raised or its version not yet bumped, and the oracle reports it.
// The evented run is also priority-tagged, so the dimension composes
// with priority reordering; both runs must be oracle-clean and agree
// on the final per-address versions.
//
// Rounds scale like the other stress dimensions: REPRO_STRESS_EVENTS
// ("on", the CI stress-matrix cell) deepens the search, -short trims
// it for the quick loop.
func TestEventDifferentialStress(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 5
	}
	if os.Getenv("REPRO_STRESS_EVENTS") == "on" {
		rounds = 40
	}
	baseSeed := int64(0x6e71) // bump to re-roll the whole suite
	for _, sk := range schedKindsUnderStress() {
		t.Run(sk.testName(), func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				seed := baseSeed + int64(round)
				spec := genPriSpec(rand.New(rand.NewSource(seed)))
				plain := runPriSpec(t, sk, spec, false, false, false)
				evented := runPriSpec(t, sk, spec, true, true, false)
				for a := range evented {
					if evented[a] != plain[a] {
						t.Fatalf("seed %d: final version of cell %d differs: evented %d vs plain %d",
							seed, a, evented[a], plain[a])
					}
				}
			}
		})
	}
}
