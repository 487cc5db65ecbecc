package sched

import (
	"runtime"
	"testing"

	"mtbench/internal/core"
)

func goroutineCount() int { return runtime.NumGoroutine() }

// allocBody is a small but representative program: an object of each
// hot kind, a fork/join pair, lock traffic and an oracle. Its own
// per-run allocations (the two object constructors and the spawned
// closure) are part of the measured budget, so the engine's share of
// the bound below is only what is left after them.
func allocBody(ct core.T) {
	x := ct.NewInt("x", 0)
	mu := ct.NewMutex("mu")
	h := ct.Go("w", func(wt core.T) {
		mu.Lock(wt)
		x.Add(wt, 1)
		mu.Unlock(wt)
	})
	mu.Lock(ct)
	x.Add(ct, 1)
	mu.Unlock(ct)
	h.Join(ct)
	ct.Assert(x.Load(ct) == 2, "sum")
}

// maxPooledAllocs pins the steady-state allocation count of a pooled
// run of allocBody. Measured at 6: one Result, one FinishOrder
// snapshot, and the program's own four (IntVar, Mutex, the spawned
// closure, and its capture cell); the scheduler, threads, goroutines,
// channels, runnable sets, schedule buffer and events contribute
// nothing. The bound leaves headroom of 2 for toolchain drift; a jump
// past it means someone put an allocation back on the per-run path —
// the regression this test exists to catch.
const maxPooledAllocs = 8

// locReader is a listener that reads every event's location handle,
// so runs under it capture a location per probe.
type locReader struct{ sum uint64 }

func (l *locReader) OnEvent(ev *core.Event) { l.sum += uint64(ev.LocID) }

// TestPooledRunAllocs is the allocation regression gate on the run
// hot path (CI runs it with every push): steady-state pooled runs must
// stay allocation-free in the engine, with and without schedule
// recording, and with a listener that makes every probe capture its
// call site.
func TestPooledRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"recording", Config{RecordSchedule: true}},
		{"located", Config{Listeners: []core.Listener{&locReader{}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner()
			defer r.Close()
			r.Run(tc.cfg, allocBody) // warm the pools and buffers
			n := testing.AllocsPerRun(200, func() {
				r.Run(tc.cfg, allocBody)
			})
			t.Logf("%.1f allocs/run", n)
			if n > maxPooledAllocs {
				t.Fatalf("pooled run allocates %.1f objects/run, budget %d", n, maxPooledAllocs)
			}
		})
	}
}

// TestPooledRunReusesThreads pins the goroutine side of pooling: a
// reused Runner must not grow the process's goroutine population run
// over run (each virtual thread's goroutine parks in the pool between
// runs instead of dying and respawning).
func TestPooledRunReusesThreads(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	r.Run(Config{}, allocBody)
	before := goroutineCount()
	for i := 0; i < 50; i++ {
		r.Run(Config{}, allocBody)
	}
	after := goroutineCount()
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d over 50 pooled runs", before, after)
	}
}

// TestRandomStrategyAllocs pins the cost of a per-run random strategy:
// building sched.Random and drawing a few picks is the strategy and
// one core.NewRand allocation, with no seeding table behind them.
func TestRandomStrategyAllocs(t *testing.T) {
	c := &Choice{Runnable: []core.ThreadID{0, 1, 2}}
	n := testing.AllocsPerRun(200, func() {
		st := Random(7)
		for i := 0; i < 5; i++ {
			st.Pick(c)
		}
	})
	if n > 2 {
		t.Fatalf("Random(seed) plus 5 picks allocates %.1f objects, budget 2", n)
	}
}
