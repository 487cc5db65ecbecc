package core

import "fmt"

// probeHops is the number of saved frame pointers frameRet follows
// from ProbeLocationID's frame to reach the benchmark program's: the
// physical chain is program -> runtime object or context method ->
// progLoc -> ProbeLocationID, and both progLoc helpers are
// go:noinline so the inliner cannot shorten it.
const probeHops = 2

// frameRet is implemented in callerpc_amd64.s. A Go version of the
// walk would convert frame-pointer words to unsafe.Pointer, which vet
// flags as a possible misuse.
func frameRet(hops int) uintptr

// ProbeLocationID resolves the source location of the benchmark
// program's call into a runtime probe, plus its interned handle. It
// must be called from a runtime's non-inlined progLoc helper, called
// in turn directly by the object or context method the program
// invoked.
//
// The call site is read from the frame-pointer chain in O(1) and
// resolved through locCache. The first capture at each PC (every
// capture under CheckProbeLocations) is cross-checked against
// runtime.Callers at the same logical depth; see probeMiss.
//
//go:noinline
func ProbeLocationID() (Location, uint32) {
	pc := frameRet(probeHops)
	if c, ok := locCache.Load(pc); ok && !checkAllProbes.Load() {
		cl := c.(cachedLoc)
		if !cl.elided {
			return cl.loc, cl.id
		}
		// Logical stack: ProbeLocationID -> progLoc -> method -> program.
		return CallerLocationID(3)
	}
	return probeMiss(pc)
}

// maxElided bounds how many physical frames above the captured one
// probeMiss searches for the logical call site.
const maxElided = 4

// probeMiss resolves a captured PC, cross-checks it against the
// runtime.Callers walk, and caches the verdict. Its logical stack is
// probeMiss -> ProbeLocationID -> progLoc -> method -> program; it
// stays a real frame so that its own frame-pointer chain reaches the
// captured PC at probeHops+1.
//
// One kind of mismatch is expected: when the program calls the method
// through frames runtime.Callers elides (the closure of a
// `defer mu.Unlock(t)` statement, plus runtime.deferreturn when the
// defer is not open-coded), the first of them sits at the program's
// place in the physical chain. It is recognized by a frame a few hops
// above it holding the logical call site while the captured PC is not
// the method's own frame. Such PCs are cached as elided and take the
// runtime.Callers walk on every probe. Any other mismatch means the
// hop count is wrong, and panics with both locations.
//
//go:noinline
func probeMiss(pc uintptr) (Location, uint32) {
	cl := resolveFrame(pc)
	loc, id := CallerLocationID(4)
	if cl.loc == loc && cl.id == id {
		locCache.Store(pc, cl)
		return loc, id
	}
	if method, _ := CallerLocationID(3); cl.loc != method {
		for hop := probeHops + 2; hop <= probeHops+1+maxElided; hop++ {
			above := frameRet(hop)
			if above == 0 {
				break
			}
			if resolvePC(above).loc == loc {
				cl.elided = true
				locCache.Store(pc, cl)
				return loc, id
			}
		}
	}
	// Raw PCs are not compared: when the call site is inlined the two
	// walks report different PCs that resolve to the same
	// file:line:function.
	panic(fmt.Sprintf("core: probe location %v (handle %d) differs from runtime.Callers' %v (handle %d)",
		cl.loc, cl.id, loc, id))
}
