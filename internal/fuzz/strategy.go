package fuzz

import (
	"math/rand"
	"slices"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// guided is the candidate-execution strategy: it follows a mutated
// decision log for as long as the log is feasible, repairs infeasible
// decisions with a seeded random pick instead of declaring divergence
// (a mutated schedule is a search hint, not a replay contract), and
// extends past the end of the log with a random walk so short mutants
// still complete their run.
//
// While driving, it also records which executed steps had a runnable
// thread pending an operation on a known-contended variable — the
// "hot" positions the variable-bias mutator later prefers to mutate
// (thread-aware greybox fuzzing's coverage priming).
type guided struct {
	decisions []core.ThreadID
	rng       *rand.Rand
	// targets is the snapshot of contended variables at candidate
	// construction time, keyed by interned name handle (nil disables
	// hot tracking).
	targets map[uint32]bool
	// capture records each executed decision's packed operation
	// footprint into fps, aligned with the run's recorded schedule —
	// the input the commutation canonicalizer needs
	// (Options.Canonicalize).
	capture bool

	pos     int
	repairs int64
	hot     []int
	fps     []uint64
}

// Name implements sched.Strategy.
func (g *guided) Name() string { return "fuzz-guided" }

// Pick implements sched.Strategy.
func (g *guided) Pick(c *sched.Choice) core.ThreadID {
	if g.targets != nil && c.PendingOf != nil {
		for _, id := range c.Runnable {
			if g.targets[c.PendingOf(id).NameID] {
				g.hot = append(g.hot, int(c.Step))
				break
			}
		}
	}
	pick := g.pickRaw(c)
	if g.capture && c.PendingOf != nil {
		// Footprint of the decision actually executed (repairs
		// included), aligned index-for-index with the recorded
		// schedule. IdleID has no pending operation and records the
		// conservative zero footprint.
		g.fps = append(g.fps, c.PendingOf(pick).Footprint().Packed())
	}
	return pick
}

func (g *guided) pickRaw(c *sched.Choice) core.ThreadID {
	if g.pos < len(g.decisions) {
		want := g.decisions[g.pos]
		g.pos++
		if want == sched.IdleID {
			if c.CanIdle {
				return sched.IdleID
			}
		} else if slices.Contains(c.Runnable, want) {
			return want
		}
		g.repairs++
	}
	return c.Runnable[g.rng.Intn(len(c.Runnable))]
}
