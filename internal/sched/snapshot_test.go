package sched_test

import (
	"slices"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// countListener counts delivered events — the ledger for the
// fast-forward suppression contract (a fast-forwarded run's listeners
// see exactly the events after the restored position).
type countListener struct{ n int }

func (c *countListener) OnEvent(*core.Event) { c.n++ }

// snapshotter wraps a strategy and captures the position digest at
// decision at through Choice.SnapshotTo — the hook the exploration
// engine snapshots branches with — recording how many events the
// listener had seen at that moment.
type snapshotter struct {
	inner sched.Strategy
	at    int64
	count *countListener

	snap   sched.Snapshot
	events int
	taken  bool
}

func (s *snapshotter) Name() string { return "snapshotter:" + s.inner.Name() }

func (s *snapshotter) Pick(c *sched.Choice) core.ThreadID {
	if c.Step == s.at && !s.taken {
		c.SnapshotTo(&s.snap)
		s.events = s.count.n
		s.taken = true
	}
	return s.inner.Pick(c)
}

// capture runs body under a replay of schedule on runner, capturing
// the position digest at decision k. It returns the completed run's
// result and the snapshotter (taken is false when the run ended before
// decision k).
func capture(runner *sched.Runner, name string, schedule []core.ThreadID, k int, body func(core.T)) (*core.Result, *snapshotter) {
	sn := &snapshotter{
		inner: &sched.FixedSchedule{Decisions: schedule},
		at:    int64(k),
		count: &countListener{},
	}
	res := runner.Run(sched.Config{
		Strategy:       sn,
		Listeners:      []core.Listener{sn.count},
		Name:           name,
		MaxSteps:       300_000,
		RecordSchedule: true,
	}, body)
	return res, sn
}

// TestFastForwardByteIdentical is the fast-forward contract: replaying
// a recorded decision prefix through Config.FastForward (with the
// position digest captured via Choice.SnapshotTo verified via FFCheck)
// and handing the rest of the run to a replay strategy produces a
// Result byte-identical to the original run — verdict, outcome, steps,
// events, finish order and the full recorded schedule — while the
// listeners see exactly the events the original run emitted after the
// snapshot point. Capturing the digest is itself invisible: the
// capturing run is byte-identical to the original too.
func TestFastForwardByteIdentical(t *testing.T) {
	capturer := sched.NewRunner()
	defer capturer.Close()
	replay := sched.NewRunner()
	defer replay.Close()

	for _, p := range repository.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			body := p.BodyWith(nil)
			for seed := int64(0); seed < 2; seed++ {
				fullCount := &countListener{}
				full := sched.Run(sched.Config{
					Strategy:       sched.Random(seed),
					Listeners:      []core.Listener{fullCount},
					Name:           p.Name,
					MaxSteps:       300_000,
					RecordSchedule: true,
				}, body)

				for _, k := range []int{0, 1, 5, 20, len(full.Schedule) / 2} {
					if k > len(full.Schedule) {
						continue
					}
					// Replay the recorded schedule and capture the
					// digest of the position at decision k.
					got, sn := capture(capturer, p.Name, full.Schedule, k, body)
					if got.Verdict != full.Verdict || got.Outcome != full.Outcome ||
						got.Steps != full.Steps || got.Events != full.Events ||
						got.Threads != full.Threads || got.DeadlockInfo != full.DeadlockInfo ||
						!slices.Equal(got.FinishOrder, full.FinishOrder) ||
						!slices.Equal(got.Schedule, full.Schedule) {
						t.Fatalf("seed %d k %d: capturing run %+v != full %+v", seed, k, got, full)
					}
					if !sn.taken {
						// The run ended before decision k (k == full
						// schedule length); nothing to snapshot.
						continue
					}
					snap := sn.snap
					if snap.Steps != int64(k) {
						t.Fatalf("seed %d k %d: snapshot cursor %d", seed, k, snap.Steps)
					}

					// Fast-forward a fresh run to the same position and
					// replay the rest of the schedule.
					ffCount := &countListener{}
					ff := replay.Run(sched.Config{
						Strategy:       &sched.FixedSchedule{Decisions: append([]core.ThreadID(nil), full.Schedule[k:]...)},
						Listeners:      []core.Listener{ffCount},
						Name:           p.Name,
						MaxSteps:       300_000,
						RecordSchedule: true,
						FastForward:    full.Schedule[:k],
						FFCheck:        &snap,
					}, body)
					if ff.Verdict != full.Verdict || ff.Outcome != full.Outcome ||
						ff.Steps != full.Steps || ff.Events != full.Events ||
						ff.Threads != full.Threads || ff.DeadlockInfo != full.DeadlockInfo {
						t.Fatalf("seed %d k %d: ff %+v != full %+v", seed, k, ff, full)
					}
					if !slices.Equal(ff.FinishOrder, full.FinishOrder) {
						t.Fatalf("seed %d k %d: finish order %v != %v", seed, k, ff.FinishOrder, full.FinishOrder)
					}
					if !slices.Equal(ff.Schedule, full.Schedule) {
						t.Fatalf("seed %d k %d: ff schedule %d decisions, want %d",
							seed, k, len(ff.Schedule), len(full.Schedule))
					}
					// Event conservation: the capturing run had seen the
					// first k decisions' events at the snapshot, the
					// fast-forwarded run saw the rest.
					if sn.events+ffCount.n != fullCount.n {
						t.Fatalf("seed %d k %d: event split %d+%d != full %d",
							seed, k, sn.events, ffCount.n, fullCount.n)
					}
				}
			}
		})
	}
}

// TestFastForwardDivergence pins the two failure modes of restoring a
// position: a tampered digest (the model state does not match the
// snapshot) and a prefix the program cannot follow both yield
// VerdictDiverged rather than a panic or a silent wrong-state run.
func TestFastForwardDivergence(t *testing.T) {
	prog, err := repository.Get("account")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.BodyWith(nil)
	full := sched.Run(sched.Config{Strategy: sched.Random(1), MaxSteps: 300_000, RecordSchedule: true}, body)
	if len(full.Schedule) < 8 {
		t.Fatalf("schedule too short: %d", len(full.Schedule))
	}
	k := 6

	capturer := sched.NewRunner()
	defer capturer.Close()
	_, sn := capture(capturer, "account", full.Schedule, k, body)
	if !sn.taken {
		t.Fatal("capture run completed before snapshot depth")
	}
	snap := sn.snap

	runner := sched.NewRunner()
	defer runner.Close()

	tampered := snap
	tampered.Sum ^= 1
	res := runner.Run(sched.Config{
		Strategy:    &sched.FixedSchedule{Decisions: append([]core.ThreadID(nil), full.Schedule[k:]...)},
		MaxSteps:    300_000,
		FastForward: full.Schedule[:k],
		FFCheck:     &tampered,
	}, body)
	if res.Verdict != core.VerdictDiverged {
		t.Fatalf("tampered digest: verdict %v, want diverged", res.Verdict)
	}

	bad := append([]core.ThreadID(nil), full.Schedule[:k]...)
	bad[k-1] = 99 // no such thread
	res = runner.Run(sched.Config{
		Strategy:    sched.Nonpreemptive(),
		MaxSteps:    300_000,
		FastForward: bad,
	}, body)
	if res.Verdict != core.VerdictDiverged {
		t.Fatalf("bad prefix: verdict %v, want diverged", res.Verdict)
	}

	// A healthy runner after diverged runs: same pooled runner completes
	// a normal run byte-identically to a fresh one.
	fresh := sched.Run(sched.Config{Strategy: sched.Random(3), MaxSteps: 300_000}, body)
	after := runner.Run(sched.Config{Strategy: sched.Random(3), MaxSteps: 300_000}, body)
	if after.Verdict != fresh.Verdict || after.Outcome != fresh.Outcome || after.Steps != fresh.Steps {
		t.Fatalf("post-divergence run %+v != fresh %+v", after, fresh)
	}
}

// pauser wraps a strategy and pauses the run once at each listed
// decision index to capture its position through Choice.SnapshotTo,
// keeping every digest it took.
type pauser struct {
	inner   sched.Strategy
	pauseAt map[int64]bool
	snaps   map[int64]*sched.Snapshot
}

func (p *pauser) Name() string { return "pauser:" + p.inner.Name() }

func (p *pauser) Pick(c *sched.Choice) core.ThreadID {
	if p.pauseAt[c.Step] && p.snaps[c.Step] == nil {
		snap := &sched.Snapshot{}
		c.SnapshotTo(snap)
		p.snaps[c.Step] = snap
	}
	return p.inner.Pick(c)
}

// TestParkResume is the pause contract: stopping a live run at
// several decision points to capture its position, then letting it go
// on, is invisible — the interrupted run's verdict, outcome, steps,
// events, finish order and recorded schedule are byte-identical to the
// same strategy run without interruption. Every captured position can
// be resumed later: a fresh run fast-forwarded to it (digest checked
// through FFCheck) and replaying the recorded tail reproduces the
// uninterrupted run too. Every repository program is paused at several
// depths, including decision 0 (before any thread has run).
func TestParkResume(t *testing.T) {
	runner := sched.NewRunner()
	defer runner.Close()

	for _, p := range repository.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			body := p.BodyWith(nil)
			for seed := int64(0); seed < 2; seed++ {
				cfg := func(st sched.Strategy) sched.Config {
					return sched.Config{
						Strategy:       st,
						Seed:           seed,
						Name:           p.Name,
						MaxSteps:       300_000,
						RecordSchedule: true,
					}
				}
				same := func(what string, got, want *core.Result) {
					t.Helper()
					if got.Verdict != want.Verdict || got.Outcome != want.Outcome ||
						got.Steps != want.Steps || got.Events != want.Events ||
						got.Threads != want.Threads || got.DeadlockInfo != want.DeadlockInfo {
						t.Fatalf("seed %d: %s %v != fresh %v", seed, what, got, want)
					}
					if !slices.Equal(got.FinishOrder, want.FinishOrder) {
						t.Fatalf("seed %d: %s finish order %v != %v", seed, what, got.FinishOrder, want.FinishOrder)
					}
					if !slices.Equal(got.Schedule, want.Schedule) {
						t.Fatalf("seed %d: %s schedule %d decisions, want %d",
							seed, what, len(got.Schedule), len(want.Schedule))
					}
				}

				fresh := sched.Run(cfg(sched.Random(seed)), body)
				pz := &pauser{
					inner:   sched.Random(seed),
					pauseAt: map[int64]bool{0: true, 3: true, 17: true},
					snaps:   map[int64]*sched.Snapshot{},
				}
				same("paused", runner.Run(cfg(pz), body), fresh)
				if len(pz.snaps) == 0 {
					t.Fatalf("seed %d: run never paused", seed)
				}

				for k, snap := range pz.snaps {
					if snap.Steps != k {
						t.Fatalf("seed %d: snapshot at %d has cursor %d", seed, k, snap.Steps)
					}
					resume := cfg(&sched.FixedSchedule{Decisions: append([]core.ThreadID(nil), fresh.Schedule[k:]...)})
					resume.FastForward = fresh.Schedule[:k]
					resume.FFCheck = snap
					same("resumed", runner.Run(resume, body), fresh)
				}
			}
		})
	}
}
