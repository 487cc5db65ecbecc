// Package pct implements probabilistic concurrency testing (PCT,
// after Burckhardt, Kothari, Musuvathi and Nagarakatte's "A Randomized
// Scheduler with Probabilistic Guarantees of Finding Bugs"): a
// randomized priority scheduler with a mathematical lower bound on its
// per-run bug-finding probability, the portfolio's counterpoint to
// both blind noise and systematic search.
//
// Each run assigns every thread a random high priority on first
// appearance and always runs the highest-priority runnable thread —
// by itself that is one random serialization. The power comes from
// d−1 priority-change points sampled uniformly over the run's steps:
// at each, the thread about to run is demoted below every other
// priority, forcing exactly one adversarial switch. A bug of depth d
// (one needing d−1 such forced switches at the right steps plus the
// right thread ordering) is then hit by a single run with probability
// at least
//
//	P ≥ 1/(n · k^(d−1))
//
// for a program with at most n threads and k scheduling steps. The
// benchmark programs have tiny n and k, so even modest run budgets
// push the portfolio's miss probability toward zero; the bound is
// empirically sanity-checked by TestGuaranteeEmpirical.
//
// The step count k is not known a priori, so the finder estimates it
// adaptively: run 1 takes no change points (a pure priority
// serialization, which also measures the program), and every later
// run samples its change points over the longest run observed so far.
// All randomness derives from Options.Seed via core.MixSeed per run
// (never the global math/rand source), so a fixed seed reproduces the
// campaign byte for byte — pinned by TestPCTGolden.
package pct

import (
	"math/rand"
	"slices"

	"mtbench/internal/core"
	"mtbench/internal/instrument"
	"mtbench/internal/sched"
)

// DefaultMaxRuns is the run budget when Options.MaxRuns is zero.
const DefaultMaxRuns = 2000

// DefaultDepth is the targeted bug depth when Options.Depth is zero:
// d = 3 means two priority-change points per run, enough for the
// ordering-plus-two-switches bugs the repository programs plant.
const DefaultDepth = 3

// Options configures a PCT campaign.
type Options struct {
	// MaxRuns bounds how many runs are executed (0 = 2000).
	MaxRuns int
	// MaxSteps bounds each run (0 = sched default).
	MaxSteps int64
	// Seed is the master seed; every run's priorities and change
	// points derive from it via core.MixSeed, so a fixed seed
	// reproduces the campaign exactly.
	Seed int64
	// Depth is the targeted bug depth d (0 = 3): each run after the
	// first takes d−1 priority-change points.
	Depth int
	// StopAtFirstBug ends the campaign at the first non-pass verdict.
	StopAtFirstBug bool
	// Listeners are attached to every run.
	Listeners []core.Listener
	// Name labels runs for RunObserver listeners.
	Name string
	// Plan filters which probes fire in every run (nil = instrument
	// everything).
	Plan *instrument.Plan
}

// Bug is one erroneous schedule found by PCT.
type Bug struct {
	// Schedule is the executed decision log that exposed the bug; it
	// replays through sched.FixedSchedule or the replay package.
	Schedule []core.ThreadID
	Result   *core.Result
	// Index is the 1-based number of the run that exposed it.
	Index int
}

// Result summarizes a PCT campaign.
type Result struct {
	// Runs is the number of executions performed.
	Runs int
	// Bugs are the distinct failures found, deduplicated by
	// core.BugSignature and ordered by Index.
	Bugs []Bug
	// EstimatedSteps is the adaptive step-count estimate k the last
	// run sampled its change points over (the longest observed run).
	EstimatedSteps int64
	// MaxThreads is the largest per-run thread count n observed.
	// Together with EstimatedSteps it instantiates the guarantee:
	// each depth-d run hits a depth-d bug with probability at least
	// 1/(MaxThreads · EstimatedSteps^(d−1)).
	MaxThreads int
}

// FirstBugIndex returns the run number of the first bug, or -1 when no
// bug was found (run numbers are 1-based, so -1 is unambiguous — the
// same convention as explore.Result and fuzz.Result).
func (r *Result) FirstBugIndex() int {
	if len(r.Bugs) == 0 {
		return -1
	}
	return r.Bugs[0].Index
}

// priorityBase is the band fresh-thread priorities are drawn from.
// Demotions use negative values, so any demoted thread ranks below
// every undemoted one, and later demotions rank below earlier ones
// (the classic PCT priority layout).
const (
	priorityBase  = int64(1) << 32
	priorityRange = int64(1) << 32
)

// strategy drives one PCT run. It must be rebuilt per run: priorities
// and change points are per-run randomness.
type strategy struct {
	rng     *rand.Rand
	prio    map[core.ThreadID]int64
	changes map[int64]bool
	// demotions counts change points taken, giving later demotions
	// strictly lower (more negative) priorities.
	demotions int64
}

// newStrategy samples changePoints distinct steps over horizon and
// returns the run's scheduler.
func newStrategy(rng *rand.Rand, changePoints int, horizon int64) *strategy {
	if horizon < 1 {
		horizon = 1
	}
	changes := make(map[int64]bool, changePoints)
	for int64(len(changes)) < int64(changePoints) && int64(len(changes)) < horizon {
		changes[rng.Int63n(horizon)] = true
	}
	return &strategy{rng: rng, prio: map[core.ThreadID]int64{}, changes: changes}
}

// Name implements sched.Strategy.
func (*strategy) Name() string { return "pct" }

// Pick implements sched.Strategy: run the highest-priority runnable
// thread, demoting the would-run thread first when this step is a
// change point.
func (s *strategy) Pick(c *sched.Choice) core.ThreadID {
	for _, id := range c.Runnable {
		if _, ok := s.prio[id]; !ok {
			s.prio[id] = priorityBase + s.rng.Int63n(priorityRange)
		}
	}
	best := s.highest(c.Runnable)
	if s.changes[c.Step] {
		s.demotions++
		s.prio[best] = -s.demotions
		best = s.highest(c.Runnable)
	}
	return best
}

// highest returns the highest-priority thread among runnable; ties
// (vanishingly rare) break to the lower id because Runnable is sorted.
func (s *strategy) highest(runnable []core.ThreadID) core.ThreadID {
	best := runnable[0]
	for _, id := range runnable[1:] {
		if s.prio[id] > s.prio[best] {
			best = id
		}
	}
	return best
}

// Run executes a PCT campaign over body and returns its summary. The
// loop is serial on one pooled runner: campaign determinism rests on
// finders being serially deterministic, and each run's randomness is
// an independent core.MixSeed stream.
func Run(opts Options, body func(core.T)) *Result {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = DefaultMaxRuns
	}
	if opts.Depth <= 0 {
		opts.Depth = DefaultDepth
	}
	runner := sched.NewRunner()
	defer runner.Close()

	cfg := sched.Config{
		Listeners:      opts.Listeners,
		MaxSteps:       opts.MaxSteps,
		Name:           opts.Name,
		Plan:           opts.Plan,
		RecordSchedule: true,
	}
	res := &Result{}
	seen := map[string]bool{}
	var horizon int64
	for i := 0; i < opts.MaxRuns; i++ {
		rng := core.NewRand(core.MixSeed(opts.Seed, int64(i)))
		changePoints := 0
		if i > 0 {
			// Run 1 is the pure priority serialization that seeds the
			// adaptive step estimate.
			changePoints = opts.Depth - 1
		}
		st := newStrategy(rng, changePoints, horizon)
		cfg.Strategy = st
		runRes := runner.Run(cfg, body)
		res.Runs++
		if runRes.Steps > horizon {
			horizon = runRes.Steps
		}
		if n := len(st.prio); n > res.MaxThreads {
			res.MaxThreads = n
		}
		if runRes.Verdict.Bug() {
			sig := core.BugSignature(runRes)
			if !seen[sig] {
				seen[sig] = true
				// The result and its slices live in the pooled runner
				// and are overwritten by the next run; deep-clone what
				// the bug retains.
				keep := new(core.Result)
				*keep = *runRes
				keep.Schedule = slices.Clone(runRes.Schedule)
				keep.FinishOrder = slices.Clone(runRes.FinishOrder)
				if runRes.Failure != nil {
					f := *runRes.Failure
					keep.Failure = &f
				}
				res.Bugs = append(res.Bugs, Bug{Schedule: keep.Schedule, Result: keep, Index: i + 1})
			}
			if opts.StopAtFirstBug {
				break
			}
		}
	}
	res.EstimatedSteps = horizon
	return res
}
