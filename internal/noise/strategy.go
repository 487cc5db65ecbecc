package noise

import (
	"math/rand"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// Strategy wraps a base scheduling strategy with a noise heuristic for
// the controlled runtime: at each scheduling point the heuristic
// inspects the pending operation, and a Noisy decision forces a switch
// to a different runnable thread (chosen uniformly). Otherwise the base
// strategy decides.
//
// This is the controlled-mode analogue of injecting sleeps into a
// preemptive runtime: a forced switch "simulates the behaviour of other
// possible schedulers" exactly as §2.2 describes.
type Strategy struct {
	Base sched.Strategy
	H    Heuristic
	rng  *rand.Rand

	// decisions/perturbations count heuristic activity for overhead
	// reporting.
	decisions     int64
	perturbations int64
}

// NewStrategy builds a noise-wrapped strategy. A nil base defaults to
// run-to-block with random dispatch (sched.RandomWhenBlocked), the
// model of the nondeterministic OS scheduler noise tools run over in
// the field: the heuristic adds preemptions at instrumentation points,
// the base decides who runs after a block. Pass sched.Nonpreemptive()
// explicitly to isolate the heuristic's contribution over a fully
// deterministic dispatcher.
func NewStrategy(base sched.Strategy, h Heuristic, seed int64) *Strategy {
	if base == nil {
		base = sched.RandomWhenBlocked(seed ^ 0x5DEECE66D)
	}
	if h == nil {
		h = None()
	}
	return &Strategy{Base: base, H: h, rng: core.NewRand(seed)}
}

// Name implements sched.Strategy.
func (s *Strategy) Name() string { return "noise:" + s.H.Name() }

// NeedsLocations implements sched.LocationAware: noise heuristics key
// their Points on the pending operation's program location, so the
// scheduler must keep capturing locations even in listener-free runs.
func (s *Strategy) NeedsLocations() bool { return true }

// Pick implements sched.Strategy.
func (s *Strategy) Pick(c *sched.Choice) core.ThreadID {
	canPerturb := c.CurrentRunnable() && (len(c.Runnable) > 1 || c.CanIdle)
	if canPerturb && c.Pending.Op != core.OpInvalid {
		s.decisions++
		p := Point{Thread: c.Current, Op: c.Pending.Op, Name: c.Pending.Name, Loc: c.Pending.Loc}
		if d := s.H.Decide(&p, s.rng); d.Noisy() {
			s.perturbations++
			// A sleep-type decision prefers letting virtual time pass
			// (delaying the current thread past pending timer
			// deadlines), matching a real injected delay; otherwise,
			// or when no timer is pending, switch threads.
			if d.Sleep > 0 && c.CanIdle {
				return sched.IdleID
			}
			if len(c.Runnable) > 1 {
				return s.pickOther(c)
			}
			return c.Current
		}
	}
	return s.Base.Pick(c)
}

// pickOther picks a uniformly random runnable thread other than the
// current one.
func (s *Strategy) pickOther(c *sched.Choice) core.ThreadID {
	others := make([]core.ThreadID, 0, len(c.Runnable)-1)
	for _, id := range c.Runnable {
		if id != c.Current {
			others = append(others, id)
		}
	}
	return others[s.rng.Intn(len(others))]
}

// Stats returns how many points the heuristic saw and how many it
// perturbed.
func (s *Strategy) Stats() (decisions, perturbations int64) {
	return s.decisions, s.perturbations
}
