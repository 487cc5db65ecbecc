package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"mtbench/internal/core"
	"mtbench/internal/explore"
	"mtbench/internal/repository"
)

// The exhaust workload: exhaustive reduced search (DPOR, state cache,
// 4 checkpoints) at 2 workers of the 4-philosopher dining philosophers,
// broken and fixed. One client; each exhaustion is one checked
// operation and a pass over both is the timed unit.

const exhaustWorkers = 2

// exhaustTarget is one exhaustion and the bug set it must report.
type exhaustTarget struct {
	prog   string
	params repository.Params
	want   []string // sorted bug signatures; nil = clean
}

var philDeadlock4 = `deadlock:t0(main) blocked on join "phil0"; t1(phil0) blocked on lock "fork1"; ` +
	`t2(phil1) blocked on lock "fork2"; t3(phil2) blocked on lock "fork3"; t4(phil3) blocked on lock "fork0" ` +
	`[cycle: t1->t2->t3->t4->t1]`

var philDeadlock2 = `deadlock:t0(main) blocked on join "phil0"; t1(phil0) blocked on lock "fork1"; ` +
	`t2(phil1) blocked on lock "fork0" [cycle: t1->t2->t1]`

func exhaustTargets(tiny bool) []exhaustTarget {
	if tiny {
		p := repository.Params{"philosophers": 2, "rounds": 1}
		return []exhaustTarget{{"philosophers", p, []string{philDeadlock2}}, {"philosophersfixed", p, nil}}
	}
	p := repository.Params{"philosophers": 4, "rounds": 1}
	return []exhaustTarget{{"philosophers", p, []string{philDeadlock4}}, {"philosophersfixed", p, nil}}
}

type boundTarget struct {
	exhaustTarget
	p    *repository.Program
	body func(core.T)
}

type exhaust struct {
	e       *env
	targets []exhaustTarget
	bound   []boundTarget
	order   []int

	// Traced accumulators.
	passes    int
	schedules int
	stats     explore.Stats
	wall      time.Duration // inside explore.Explore
	allocs    uint64
}

func newExhaust(e *env) workload { return &exhaust{e: e, targets: exhaustTargets(e.tiny)} }

func (x *exhaust) setup() error {
	x.bound = x.bound[:0]
	for _, t := range x.targets {
		p, err := repository.Get(t.prog)
		if err != nil {
			return err
		}
		x.bound = append(x.bound, boundTarget{t, p, p.BodyWith(t.params)})
	}
	x.order = rand.New(rand.NewSource(x.e.seed)).Perm(len(x.bound))
	// Warm-up: one small exhaustion through the same options.
	warm := x.bound[0].p
	res := explore.Explore(exhaustOptions(warm, exhaustWorkers),
		warm.BodyWith(repository.Params{"philosophers": 2, "rounds": 1}))
	if !res.Exhausted {
		return fmt.Errorf("warm-up exhaustion of %s did not finish", warm.Name)
	}
	return nil
}

// exhaustOptions are cmd/explore's -por -statecache -checkpoints 4.
func exhaustOptions(p *repository.Program, workers int) explore.Options {
	return explore.Options{
		MaxSchedules: 2_000_000,
		DPOR:         true,
		StateCache:   true,
		Checkpoints:  4,
		Workers:      workers,
		Name:         p.Name,
		Plan:         p.Plan,
	}
}

func (x *exhaust) pass(t *tally, tr *tracer, parent int32) error {
	start := time.Now()
	for _, i := range x.order {
		b := x.bound[i]
		op := tr.newOp()
		sp := tr.begin("op.exhaustion", parent, op)
		var m0 uint64
		if tr != nil {
			m0 = mallocs()
		}
		call := tr.begin("explore.Explore", sp, op)
		t0 := time.Now()
		res := explore.Explore(exhaustOptions(b.p, exhaustWorkers), b.body)
		d := time.Since(t0)
		tr.end(call)
		if tr != nil {
			x.allocs += mallocs() - m0
			x.schedules += res.Schedules
			x.stats = addStats(x.stats, res.Stats)
			x.wall += d
		}
		t.attempted++
		if err := checkExhaustion(b.exhaustTarget, res); err != nil {
			t.failed++
			fmt.Fprintf(x.e.log, "exhaust: %s: %v\n", b.prog, err)
		}
		tr.end(sp)
	}
	d := time.Since(start)
	t.opMs = append(t.opMs, ms(d))
	t.units += len(x.bound)
	t.busy += d
	if tr != nil {
		x.passes++
	}
	return nil
}

// checkExhaustion: the search finished the tree and found exactly the
// expected bug set. The first-bug index is not checked; it varies with
// the parallel split.
func checkExhaustion(t exhaustTarget, res *explore.Result) error {
	if res.Err != nil {
		return res.Err
	}
	if !res.Exhausted {
		return fmt.Errorf("not exhausted after %d schedules", res.Schedules)
	}
	got := make([]string, 0, len(res.Bugs))
	for _, b := range res.Bugs {
		got = append(got, core.BugSignature(b.Result))
	}
	sort.Strings(got)
	want := append([]string{}, t.want...)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("bug set %q, want %q", got, want)
	}
	return nil
}

func addStats(a, b explore.Stats) explore.Stats {
	a.SleepPruned += b.SleepPruned
	a.PORPruned += b.PORPruned
	a.Backtracks += b.Backtracks
	a.StateHits += b.StateHits
	a.ReplayedSteps += b.ReplayedSteps
	a.NovelSteps += b.NovelSteps
	a.CheckpointHits += b.CheckpointHits
	a.SnapshotRestores += b.SnapshotRestores
	a.RestoredSteps += b.RestoredSteps
	a.TotalSteps += b.TotalSteps
	return a
}

func (x *exhaust) layers(m metrics) error {
	if x.passes == 0 {
		return nil
	}
	// The serial reference for useful_ratio: the same exhaustions at
	// one worker, which never redo a subtree.
	serial := 0
	for _, b := range x.bound {
		res := explore.Explore(exhaustOptions(b.p, 1), b.body)
		if err := checkExhaustion(b.exhaustTarget, res); err != nil {
			return fmt.Errorf("serial exhaustion of %s: %w", b.prog, err)
		}
		serial += res.Schedules
	}
	n := float64(x.passes)
	s := x.stats
	steps := float64(s.TotalSteps)
	sched := float64(x.schedules)
	m.set("explore.schedules", sched/n)
	m.set("explore.useful_ratio", ratio(float64(serial), sched/n))
	m.set("explore.steps_total", steps/n)
	m.set("explore.replayed_frac", ratio(float64(s.ReplayedSteps), steps))
	m.set("explore.restored_frac", ratio(float64(s.RestoredSteps), steps))
	m.set("explore.novel_frac", ratio(float64(s.NovelSteps), steps))
	m.set("explore.step_ns", ratio(exhaustWorkers*float64(x.wall.Nanoseconds()), steps))
	m.set("explore.state_hit_ratio", ratio(float64(s.StateHits), sched))
	m.set("explore.snapshot_restore_ratio", ratio(float64(s.SnapshotRestores), sched))
	m.set("explore.checkpoint_hits", float64(s.CheckpointHits-s.SnapshotRestores)/n)
	m.set("explore.por_pruned", float64(s.PORPruned)/n)
	m.set("explore.sleep_pruned", float64(s.SleepPruned)/n)
	m.set("explore.backtracks", float64(s.Backtracks)/n)
	m.set("explore.allocs_per_schedule", ratio(float64(x.allocs), sched))
	return nil
}

func (x *exhaust) close() {}
