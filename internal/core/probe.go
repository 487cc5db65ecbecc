package core

import "sync/atomic"

// checkAllProbes is the test hook behind CheckProbeLocations.
var checkAllProbes atomic.Bool

// CheckProbeLocations makes every ProbeLocationID call cross-check its
// capture against a runtime.Callers walk, not only the first call at
// each program counter, and returns the previous setting. It is a test
// hook: equivalence tests turn it on around the runs whose every probe
// they want checked.
func CheckProbeLocations(on bool) bool { return checkAllProbes.Swap(on) }
