//go:build !amd64

package core

// ProbeLocationID resolves the source location of the benchmark
// program's call into a runtime probe, plus its interned handle. It
// must be called from a runtime's non-inlined progLoc helper, called
// in turn directly by the object or context method the program
// invoked. Architectures without the frame-pointer capture walk the
// stack with runtime.Callers; the program's frame is three logical
// frames above this one (progLoc, then the method, then the program).
func ProbeLocationID() (Location, uint32) { return CallerLocationID(3) }
