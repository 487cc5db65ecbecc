package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/core"
	"mtbench/internal/coverage"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// Per-layer probes. Each times one layer call from outside, through
// the layer's public API, on inputs the benchmark owns. A probe times
// several batches and reports the median batch's per-call cost.

const probeBatches = 5

// batchMedian runs fn probeBatches times and returns the median of
// what each call reports.
func batchMedian(fn func() float64) float64 {
	xs := make([]float64, probeBatches)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// hostInfo fingerprints the machine a result was measured on, so a
// run on another host shows up as host effect, not code effect.
type hostInfo struct {
	CPU        string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	PingpongNs float64 `json:"pingpong_ns"`
}

func fingerprint(tiny bool) hostInfo {
	n := 20_000
	if tiny {
		n = 1_000
	}
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		PingpongNs: batchMedian(func() float64 { return pingpong(n) }),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// pingpong is the calibration row: the round trip of a bare goroutine
// ping-pong over unbuffered channels, in ns.
func pingpong(n int) float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		ping <- struct{}{}
		<-pong
	}
	d := time.Since(start)
	close(ping)
	return float64(d.Nanoseconds()) / float64(n)
}

// runProbes fills the workload-independent per-layer metrics.
func runProbes(e *env, m metrics) error {
	scale := 1
	if e.tiny {
		scale = 10
	}
	if err := schedProbe(m, scale); err != nil {
		return err
	}
	if err := coverageProbe(m, scale); err != nil {
		return err
	}
	return campaignProbes(e, m, scale)
}

// Probe strategy modes.
const (
	modeContinue = iota // run the current thread while it can
	modeSwitch          // hand off to another thread whenever one can run
	modeSnapshot        // modeContinue, plus Choice.SnapshotTo every step
)

// probeStrategy is the benchmark's own sched.Strategy.
type probeStrategy struct {
	mode int
	snap sched.Snapshot
}

func (s *probeStrategy) Name() string { return "perfbench-probe" }

func (s *probeStrategy) Pick(c *sched.Choice) core.ThreadID {
	switch s.mode {
	case modeSwitch:
		for _, id := range c.Runnable {
			if id != c.Current {
				return id
			}
		}
		return c.Runnable[0]
	case modeSnapshot:
		c.SnapshotTo(&s.snap)
	}
	if c.CurrentRunnable() {
		return c.Current
	}
	return c.Runnable[0]
}

// probeProgram is the 2-thread probe program: two threads add to one
// shared counter n times each.
func probeProgram(n int) func(core.T) {
	return func(t core.T) {
		x := t.NewInt("x", 0)
		var hs []core.Handle
		for _, name := range []string{"a", "b"} {
			hs = append(hs, t.Go(name, func(t core.T) {
				for i := 0; i < n; i++ {
					x.Add(t, 1)
				}
			}))
		}
		for _, h := range hs {
			h.Join(t)
		}
		t.Assert(x.Load(t) == int64(2*n), "lost update")
	}
}

// timeRuns runs body under cfg reps times on r and returns ns per run
// and ns per step.
func timeRuns(r *sched.Runner, cfg sched.Config, body func(core.T), reps int) (perRun, perStep float64, err error) {
	var steps int64
	start := time.Now()
	for i := 0; i < reps; i++ {
		res := r.Run(cfg, body)
		if res.Verdict != core.VerdictPass {
			return 0, 0, fmt.Errorf("probe run: %v", res)
		}
		steps += res.Steps
	}
	d := float64(time.Since(start).Nanoseconds())
	return d / float64(reps), d / float64(steps), nil
}

func schedProbe(m metrics, scale int) error {
	r := sched.NewRunner()
	defer r.Close()
	long := probeProgram(500)
	short := probeProgram(1)
	cont := &probeStrategy{mode: modeContinue}
	sw := &probeStrategy{mode: modeSwitch}
	snap := &probeStrategy{mode: modeSnapshot}
	// One recorded switching schedule feeds the fast-forward probe.
	rec := r.Run(sched.Config{Strategy: sw, RecordSchedule: true, SkipTiming: true}, long)
	prefix := append([]core.ThreadID(nil), rec.Schedule[:len(rec.Schedule)-1]...)

	var err error
	probe := func(cfg sched.Config, body func(core.T), reps int, perStep bool) float64 {
		return batchMedian(func() float64 {
			run, step, e := timeRuns(r, cfg, body, reps)
			if e != nil {
				err = e
			}
			if perStep {
				return step
			}
			return run
		})
	}
	reps := max(20/scale, 1)
	runNs := probe(sched.Config{Strategy: cont, SkipTiming: true}, short, 2000/scale, false)
	m.set("sched.run_ns", runNs)
	contNs := probe(sched.Config{Strategy: cont, SkipTiming: true}, long, reps, true)
	m.set("sched.step_continue_ns", contNs)
	m.set("sched.step_switch_ns", probe(sched.Config{Strategy: sw, SkipTiming: true}, long, reps, true))
	m.set("sched.snapshot_ns", probe(sched.Config{Strategy: snap, SkipTiming: true}, long, reps, true)-contNs)
	ffRun := probe(sched.Config{Strategy: cont, SkipTiming: true, FastForward: prefix}, long, reps, false)
	m.set("sched.ff_step_ns", (ffRun-runNs)/float64(len(prefix)))
	return err
}

// nopListener keeps the scheduler's listener path (and its location
// capture) on without doing any work, the baseline the coverage
// tracker is measured against.
type nopListener struct{}

func (nopListener) OnEvent(*core.Event) {}

// coverageProbe times coverage.Tracker as a listener on random runs of
// the hunt programs, against the same runs with a no-op listener.
func coverageProbe(m metrics, scale int) error {
	r := sched.NewRunner()
	defer r.Close()
	tracker := coverage.NewTracker()
	runs := 200 / scale
	var bodies []func(core.T)
	for _, t := range huntTargets {
		p, err := repository.Get(t.prog)
		if err != nil {
			return err
		}
		bodies = append(bodies, p.BodyWith(nil))
	}
	pass := func(l core.Listener, reset bool) (time.Duration, int64) {
		var events int64
		start := time.Now()
		for _, body := range bodies {
			for i := 0; i < runs; i++ {
				if reset {
					tracker.Reset()
				}
				res := r.Run(sched.Config{Strategy: sched.Random(int64(i)), Listeners: []core.Listener{l}, SkipTiming: true}, body)
				events += res.Events
			}
		}
		return time.Since(start), events
	}
	m.set("coverage.event_ns", batchMedian(func() float64 {
		base, _ := pass(nopListener{}, false)
		with, events := pass(tracker, true)
		return ratio(float64((with - base).Nanoseconds()), float64(events))
	}))
	return nil
}

// noopFinder is registered with the campaign registry so the sandbox
// probe can time campaign.ExecCell around a finder that does nothing.
const noopFinder = "perfbench-noop"

func init() {
	err := campaign.RegisterFinder(noopFinder, "perfbench probe: spends no runs",
		func(context.Context, campaign.CellInput) (campaign.CellResult, error) {
			return campaign.CellResult{FirstBug: -1}, nil
		})
	if err != nil {
		panic(err)
	}
}

// campaignProbes times the cell sandbox, store appends with and
// without fsync, compaction and the regression gate.
func campaignProbes(e *env, m metrics, scale int) error {
	ctx := context.Background()
	cfg := campaign.Config{Finders: []string{noopFinder}, Programs: []string{"abastack"}, Seeds: []int64{0}, Budget: 1}
	cell := campaign.Cells(cfg)[0]
	var err error
	m.set("campaign.sandbox_us", batchMedian(func() float64 {
		n := 1000 / scale
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, e := campaign.ExecCell(ctx, cfg, cell); e != nil {
				err = e
			}
		}
		return us(time.Since(start)) / float64(n)
	}))
	if err != nil {
		return err
	}

	base, err := loadBaseline(e.baseline)
	if err != nil {
		return err
	}
	path := filepath.Join(e.tmp, "probe.jsonl")
	defer os.Remove(path)
	appendUs := func(sync bool, n int) (float64, error) {
		store, err := campaign.Create(path, base.cfg)
		if err != nil {
			return 0, err
		}
		defer store.Close()
		store.SetSync(sync)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := store.Append(base.recs[i%len(base.recs)]); err != nil {
				return 0, err
			}
		}
		return us(time.Since(start)) / float64(n), nil
	}
	for _, p := range []struct {
		name string
		sync bool
		n    int
	}{{"campaign.append_us", false, 1000 / scale}, {"campaign.append_sync_us", true, 20 / scale}} {
		m.set(p.name, batchMedian(func() float64 {
			v, e := appendUs(p.sync, max(p.n, 2))
			if e != nil {
				err = e
			}
			return v
		}))
	}
	if err != nil {
		return err
	}

	store, err := campaign.Create(path, base.cfg)
	if err != nil {
		return err
	}
	defer store.Close()
	for _, r := range base.recs {
		if err := store.Append(r); err != nil {
			return err
		}
	}
	m.set("campaign.compact_ms", batchMedian(func() float64 {
		start := time.Now()
		if e := store.Compact(); e != nil {
			err = e
		}
		return ms(time.Since(start))
	}))
	if err != nil {
		return err
	}
	m.set("campaign.gate_ms", batchMedian(func() float64 {
		start := time.Now()
		if e := campaign.Compare(base.recs, base.recs, 1.0).Gate(); e != nil {
			err = e
		}
		return ms(time.Since(start))
	}))
	return err
}
