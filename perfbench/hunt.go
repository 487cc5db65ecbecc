package main

import (
	"fmt"
	"math/rand"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/fuzz"
	"mtbench/internal/repository"
)

// The fuzz-hunt workload: fuzz.Fuzz at one worker, stopping at the
// first bug, over a fixed seed list on full-size abastack and onecond.
// One client; each hunt is one checked operation and the timed unit.

const (
	huntSeeds     = 50     // per program: 100 hunts a pass, so p90 has 10 beyond it
	huntSeedsTiny = 3      // per program, for smoke runs
	huntCap       = 20_000 // runs; the longest hunt of the list takes 4,210
	huntWarmRuns  = 200    // runs of the set-up warm-up hunt
)

// huntTarget is a program and its documented bug signatures.
type huntTarget struct {
	prog string
	want map[string]bool
}

var huntTargets = []huntTarget{
	{"abastack", map[string]bool{
		"fail:ABA double-pop: node1 2/2 node2 2/1 pops/pushes@repository/prog_extra.go:87": true,
	}},
	{"onecond", map[string]bool{
		`deadlock:t0(main) blocked on join "prod0"; t1(prod0) blocked on cond "onecv"; t3(cons0) blocked on cond "onecv"`: true,
		`deadlock:t0(main) blocked on join "prod0"; t1(prod0) blocked on cond "onecv"; t4(cons1) blocked on cond "onecv"`: true,
		`deadlock:t0(main) blocked on join "prod1"; t2(prod1) blocked on cond "onecv"; t3(cons0) blocked on cond "onecv"`: true,
		`deadlock:t0(main) blocked on join "prod1"; t2(prod1) blocked on cond "onecv"; t4(cons1) blocked on cond "onecv"`: true,
	}},
}

type huntItem struct {
	target int
	seed   int64
}

type hunt struct {
	e       *env
	targets []huntTarget
	seeds   int
	progs   []*repository.Program
	bodies  []func(core.T)
	items   []huntItem

	// Traced accumulators.
	runs, repairs, covRuns, corpus, coverage int64
	wall                                     time.Duration // inside fuzz.Fuzz
	allocs                                   uint64
	runsToBug                                []float64
}

func newHunt(e *env) workload {
	h := &hunt{e: e, targets: huntTargets, seeds: huntSeeds}
	if e.tiny {
		h.seeds = huntSeedsTiny
	}
	return h
}

func (h *hunt) setup() error {
	h.progs, h.bodies, h.items = nil, nil, nil
	for i, t := range h.targets {
		p, err := repository.Get(t.prog)
		if err != nil {
			return err
		}
		h.progs = append(h.progs, p)
		h.bodies = append(h.bodies, p.BodyWith(nil))
		for s := 0; s < h.seeds; s++ {
			h.items = append(h.items, huntItem{i, int64(s)})
		}
	}
	rng := rand.New(rand.NewSource(h.e.seed))
	rng.Shuffle(len(h.items), func(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] })
	// Warm-up: a short capped hunt on each program.
	for i, p := range h.progs {
		fuzz.Fuzz(huntOptions(p, 0, huntWarmRuns), h.bodies[i])
	}
	return nil
}

func huntOptions(p *repository.Program, seed int64, maxRuns int) fuzz.Options {
	return fuzz.Options{
		MaxRuns:        maxRuns,
		Seed:           seed,
		Workers:        1,
		StopAtFirstBug: true,
		Name:           p.Name,
		Plan:           p.Plan,
	}
}

func (h *hunt) pass(t *tally, tr *tracer, parent int32) error {
	for _, it := range h.items {
		p := h.progs[it.target]
		op := tr.newOp()
		sp := tr.begin("op.hunt", parent, op)
		var m0 uint64
		if tr != nil {
			m0 = mallocs()
		}
		call := tr.begin("fuzz.Fuzz", sp, op)
		t0 := time.Now()
		res := fuzz.Fuzz(huntOptions(p, it.seed, huntCap), h.bodies[it.target])
		d := time.Since(t0)
		tr.end(call)
		t.opMs = append(t.opMs, ms(d))
		t.units++
		t.busy += d
		if tr != nil {
			h.allocs += mallocs() - m0
			h.wall += d
			h.runs += int64(res.Runs)
			h.repairs += res.Repairs
			h.covRuns += int64(res.CoverageRuns)
			h.corpus += int64(res.CorpusSize)
			h.coverage += int64(res.Coverage)
			h.runsToBug = append(h.runsToBug, float64(res.FirstBugIndex()))
		}
		t.attempted++
		if err := h.targets[it.target].check(res); err != nil {
			t.failed++
			fmt.Fprintf(h.e.log, "fuzz-hunt: %s seed %d: %v\n", p.Name, it.seed, err)
		}
		tr.end(sp)
	}
	return nil
}

// check: the hunt stopped at a documented bug of its program before
// the run cap.
func (ht huntTarget) check(res *fuzz.Result) error {
	if len(res.Bugs) == 0 {
		return fmt.Errorf("no bug within %d runs", res.Runs)
	}
	if sig := core.BugSignature(res.Bugs[0].Result); !ht.want[sig] {
		return fmt.Errorf("undocumented bug %q", sig)
	}
	return nil
}

func (h *hunt) layers(m metrics) error {
	n := float64(len(h.runsToBug))
	if n == 0 {
		return nil
	}
	runs := float64(h.runs)
	m.set("fuzz.runs_per_s", ratio(runs, h.wall.Seconds()))
	m.set("fuzz.runs_to_bug_p50", percentile(h.runsToBug, 50))
	m.set("fuzz.runs_to_bug_p90", percentile(h.runsToBug, 90))
	m.set("fuzz.repair_ratio", ratio(float64(h.repairs), runs))
	m.set("fuzz.coverage_gain_ratio", ratio(float64(h.covRuns), runs))
	m.set("fuzz.corpus", float64(h.corpus)/n)
	m.set("fuzz.coverage", float64(h.coverage)/n)
	m.set("fuzz.allocs_per_run", ratio(float64(h.allocs), runs))
	return nil
}

func (h *hunt) close() {}
