package sched_test

import (
	"fmt"
	"strings"
	"testing"

	"mtbench/internal/core"
	_ "mtbench/internal/genprog" // registers the generated programs
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// locChecker is a listener that reads every event's location (it does
// not implement core.LocationIndifferent, so the scheduler captures
// one per probe) and records the first inconsistency it sees.
type locChecker struct {
	events int
	bad    string
}

func (l *locChecker) OnEvent(ev *core.Event) {
	l.events++
	if l.bad != "" {
		return
	}
	switch ev.Op {
	case core.OpEnd:
		return // a body returning has no call site
	case core.OpFail:
		// Oracle failures are located by their own runtime.Callers
		// walk and carry no handle.
		if ev.Loc.File == "" {
			l.bad = fmt.Sprintf("unlocated event %v", ev)
		}
		return
	}
	switch {
	case ev.Loc.File == "" || ev.Loc.Line == 0 || ev.LocID == 0:
		l.bad = fmt.Sprintf("unlocated event %v (handle %d)", ev, ev.LocID)
	case ev.LocID != core.InternLocKey(ev.Loc.File, ev.Loc.Line):
		l.bad = fmt.Sprintf("event %v carries handle %d, not its location's", ev, ev.LocID)
	case strings.HasPrefix(ev.Loc.Fn, "sched.") || strings.HasPrefix(ev.Loc.Fn, "core."):
		l.bad = fmt.Sprintf("event %v is located inside the runtime", ev)
	}
}

// TestProbeLocationsMatchCallers pins the frame-pointer location
// capture to the runtime.Callers walk it replaces: with the
// cross-check forced on every probe (not only the first at each PC),
// every registered program — the hand-written repository and the
// rewrite pipeline's generated packages — runs under Random with a
// location-reading listener. A mismatch panics inside the probe and
// surfaces as a "panic: core: probe location" failure.
func TestProbeLocationsMatchCallers(t *testing.T) {
	defer core.CheckProbeLocations(core.CheckProbeLocations(true))
	runner := sched.NewRunner()
	defer runner.Close()
	for _, p := range repository.All() {
		t.Run(p.Name, func(t *testing.T) {
			body := p.BodyWith(nil)
			for seed := int64(0); seed < 3; seed++ {
				lc := &locChecker{}
				res := runner.Run(sched.Config{
					Strategy:  sched.Random(seed),
					Name:      p.Name,
					MaxSteps:  20_000,
					Listeners: []core.Listener{lc},
				}, body)
				if res.Failure != nil && strings.Contains(res.Failure.Msg, "probe location") {
					t.Fatalf("seed %d: %s", seed, res.Failure.Msg)
				}
				if lc.bad != "" {
					t.Fatalf("seed %d: %s", seed, lc.bad)
				}
				if lc.events == 0 {
					t.Fatalf("seed %d: no events", seed)
				}
			}
		})
	}
}

// deferredUnlockBody releases its lock from a defer statement, so the
// Unlock probe is called from the compiler's defer closure — a frame
// runtime.Callers elides — rather than from the body itself.
func deferredUnlockBody(ct core.T) {
	mu := ct.NewMutex("mu")
	mu.Lock(ct)
	defer mu.Unlock(ct)
	ct.Yield()
}

// unlockLocs records the location of every Unlock event.
type unlockLocs []core.Location

func (u *unlockLocs) OnEvent(ev *core.Event) {
	if ev.Op == core.OpUnlock {
		*u = append(*u, ev.Loc)
	}
}

// TestDeferredProbeLocation pins probes reached through an elided
// frame: a deferred Unlock reports the body's own frame, as the
// runtime.Callers walk does, on the first capture at that PC, on
// cached captures after it, and under the forced cross-check.
func TestDeferredProbeLocation(t *testing.T) {
	var locs unlockLocs
	cfg := sched.Config{Strategy: sched.Random(1), Listeners: []core.Listener{&locs}}
	sched.Run(cfg, deferredUnlockBody)
	sched.Run(cfg, deferredUnlockBody)
	prev := core.CheckProbeLocations(true)
	sched.Run(cfg, deferredUnlockBody)
	core.CheckProbeLocations(prev)
	if len(locs) != 3 {
		t.Fatalf("%d unlock events, want 3", len(locs))
	}
	for i, loc := range locs {
		if loc.Fn != "sched_test.deferredUnlockBody" || loc != locs[0] {
			t.Fatalf("run %d: deferred unlock located at %v (first run: %v)", i, loc, locs[0])
		}
	}
}
