package native

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mtbench/internal/core"
)

// probeKindsBody calls every probe the native runtime has, from the
// program body and from spawned threads.
func probeKindsBody(ct core.T) {
	mu := ct.NewMutex("mu")
	rw := ct.NewRWMutex("rw")
	cond := ct.NewCond("cond", mu)
	x := ct.NewInt("x", 0)
	a := ct.NewAtomicInt("a", 0)
	ref := ct.NewRef("ref")
	wg := ct.NewWaitGroup("wg")
	ch := ct.NewChan("ch", 1)
	ready := ct.NewInt("ready", 0)

	wg.Add(ct, 1)
	h := ct.Go("w", func(wt core.T) {
		defer wg.Done(wt)
		mu.Lock(wt)
		for ready.Load(wt) == 0 {
			cond.Wait(wt)
		}
		mu.Unlock(wt)
		ch.Send(wt, 1)
		rw.RLock(wt)
		ref.Store(wt, "v")
		rw.RUnlock(wt)
	})
	ct.Yield()
	ct.Sleep(time.Microsecond)
	if mu.TryLock(ct) {
		ready.Store(ct, 1)
		cond.Signal(ct)
		cond.Broadcast(ct)
		mu.Unlock(ct)
	}
	x.Store(ct, x.Load(ct)+1)
	a.Add(ct, 1)
	a.CompareAndSwap(ct, 1, 2)
	ct.Select([]core.SelectCase{{Ch: ch}})
	wg.Wait(ct)
	h.Join(ct)
	rw.Lock(ct)
	_ = ref.Load(ct)
	rw.Unlock(ct)
	ch.Close(ct)
	_, _ = ch.Recv(ct)
	ct.Outcome("done")
}

// nativeLocChecker reads every event's location and records the first
// one that is not inside probeKindsBody.
type nativeLocChecker struct {
	mu  sync.Mutex
	ops map[core.Op]bool
	bad string
}

func (l *nativeLocChecker) OnEvent(ev *core.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.Op == core.OpEnd {
		return // a body returning has no call site
	}
	l.ops[ev.Op] = true
	if l.bad == "" && (ev.Loc.Line == 0 || !strings.HasPrefix(ev.Loc.Fn, "native.probeKindsBody")) {
		l.bad = fmt.Sprintf("event %v located at %v, outside the program", ev, ev.Loc)
	}
}

// TestProbeLocationsMatchCallers is the native runtime's half of the
// location equivalence check (the controlled runtime's runs the whole
// repository): with the runtime.Callers cross-check forced on every
// probe, every probe kind reports a call site inside the program.
func TestProbeLocationsMatchCallers(t *testing.T) {
	defer core.CheckProbeLocations(core.CheckProbeLocations(true))
	lc := &nativeLocChecker{ops: map[core.Op]bool{}}
	res := Run(Config{Timeout: 5 * time.Second, Listeners: []core.Listener{lc}}, probeKindsBody)
	if res.Verdict != core.VerdictPass {
		t.Fatalf("verdict = %v (%v)", res.Verdict, res)
	}
	if lc.bad != "" {
		t.Fatal(lc.bad)
	}
	for _, op := range []core.Op{core.OpFork, core.OpJoin, core.OpYield, core.OpSleep, core.OpLock, core.OpUnlock,
		core.OpRLock, core.OpRUnlock, core.OpWait, core.OpSignal, core.OpBroadcast, core.OpRead, core.OpWrite,
		core.OpWGAdd, core.OpWGWait, core.OpChanSend, core.OpChanRecv, core.OpChanClose, core.OpOutcome} {
		if !lc.ops[op] {
			t.Errorf("no %v event: the body no longer reaches that probe", op)
		}
	}
}
