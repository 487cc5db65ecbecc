package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/campsvc"
)

// The fleet workload: the baseline's 56 cells through campsvc, in
// process — a coordinator served by campsvc.Handler on a loopback
// listener, its store with fsync on (the coordinator default), and two
// campsvc.Work loops, each on its own campsvc.Client and so its own
// connection. Each pass gets a fresh coordinator and store. One client
// (the pass); each cell is one checked operation and the timed unit,
// from its lease grant to its complete-ack.

const (
	fleetWorkers = 2
	// fleetPassLimit bounds a pass, so a fleet that stops settling
	// cells fails the run instead of hanging it.
	fleetPassLimit = 2 * time.Minute
)

type fleet struct {
	e    *env
	base *baseline

	ln      net.Listener
	srv     *http.Server
	served  chan error
	url     string
	conns   []*http.Client               // one per worker, kept across passes
	gen     int                          // coordinators installed so far
	handler atomic.Pointer[http.Handler] // the current coordinator

	// Traced accumulators.
	cells       cellStats
	rpc         rpcStats
	cellTime    time.Duration
	wall        time.Duration
	passes      int
	duplicates  int
	expiries    int
	quarantined int
}

func newFleet(e *env) workload { return &fleet{e: e, cells: newCellStats()} }

func (f *fleet) setup() error {
	base, err := loadBaseline(f.e.baseline)
	if err != nil {
		return err
	}
	f.base = base
	f.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	f.srv = &http.Server{Handler: http.HandlerFunc(f.serve)}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(f.ln) }()
	f.url = "http://" + f.ln.Addr().String()
	f.conns = nil
	for i := 0; i < fleetWorkers; i++ {
		f.conns = append(f.conns, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		})
	}
	// Warm-up: a coordinator over an in-memory store answers one
	// config request on each connection.
	coord, err := campsvc.NewCoordinator(base.cfg, nil, campsvc.CoordinatorOptions{})
	if err != nil {
		return err
	}
	for _, c := range f.install(coord) {
		if _, err := c.Config(context.Background()); err != nil {
			return fmt.Errorf("warm-up config request: %w", err)
		}
	}
	return nil
}

// install serves c under a URL prefix of its own and returns one
// client per worker for it. A request that a cancelled worker of an
// earlier pass left in flight still carries that pass's prefix, so it
// gets a 404 instead of a lease from c that no worker would complete.
func (f *fleet) install(c *campsvc.Coordinator) []*campsvc.Client {
	f.gen++
	prefix := fmt.Sprintf("/pass%d", f.gen)
	h := http.StripPrefix(prefix, campsvc.Handler(c))
	f.handler.Store(&h)
	clients := make([]*campsvc.Client, len(f.conns))
	for i, hc := range f.conns {
		clients[i] = &campsvc.Client{Base: f.url + prefix, HTTP: hc}
	}
	return clients
}

func (f *fleet) serve(w http.ResponseWriter, r *http.Request) {
	(*f.handler.Load()).ServeHTTP(w, r)
}

func (f *fleet) close() {
	if f.srv == nil {
		return
	}
	f.srv.Close()
	<-f.served
	for _, hc := range f.conns {
		hc.CloseIdleConnections()
	}
	f.srv = nil
}

func (f *fleet) pass(t *tally, tr *tracer, parent int32) error {
	path := filepath.Join(f.e.tmp, "fleet.jsonl")
	store, err := campaign.Create(path, f.base.cfg)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	sp := tr.begin("campsvc.NewCoordinator", parent, 0)
	coord, err := campsvc.NewCoordinator(f.base.cfg, store, campsvc.CoordinatorOptions{})
	tr.end(sp)
	if err != nil {
		store.Close()
		return err
	}
	clients := f.install(coord)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	transports := make([]*timedTransport, fleetWorkers)
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range transports {
		work := tr.begin("campsvc.Work", parent, 0)
		transports[i] = &timedTransport{inner: clients[i], tr: tr, work: work, grants: map[string]grant{}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = campsvc.Work(ctx, campsvc.WorkerOptions{
				Name:      fmt.Sprintf("w%d", i),
				Transport: transports[i],
			})
			tr.end(work)
		}(i)
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()

	// The pass ends when the coordinator has settled every cell and
	// compacted the store. An idle worker at the tail was told to
	// retry after a third of the lease TTL; cancelling ends that wait.
	finished := true
	select {
	case <-coord.Done():
	case <-exited:
		finished = false
	case <-time.After(fleetPassLimit):
		finished = false
	}
	end := time.Now()
	wall := end.Sub(t0)
	cancel()
	<-exited
	var cerr error
	if finished {
		cerr = coord.Wait(context.Background())
	}
	if err := store.Close(); cerr == nil {
		cerr = err
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("fleet worker %d: %w", i, err)
		}
	}
	if !finished {
		return fmt.Errorf("fleet campaign unfinished after %v", time.Since(t0).Round(time.Millisecond))
	}
	if cerr != nil {
		return cerr
	}

	ck := tr.begin("harness.check", parent, 0)
	failed, err := f.base.check(path)
	tr.end(ck)
	if err != nil {
		return err
	}
	var rpc rpcStats
	for _, tt := range transports {
		tt.finish(end)
		rpc.merge(&tt.rpcStats)
	}
	dups := rpc.duplicates
	expiries := rpc.regrants - rpc.fails
	quarantined := coord.Status().Quarantined
	if dups+expiries+quarantined > 0 {
		fmt.Fprintf(f.e.log, "fleet: %d duplicates, %d expiries, %d quarantined\n", dups, expiries, quarantined)
	}
	// A clean fleet has none of these; each counts as a failed cell.
	nFailed := min(len(failed)+dups+expiries+quarantined, len(f.base.keys))
	reportCells(f.e, "fleet", t, f.base, nFailed)

	var cellTime time.Duration
	for _, c := range rpc.cells {
		t.opMs = append(t.opMs, ms(c.d))
		cellTime += c.d
	}
	t.units += len(rpc.cells)
	t.busy += wall
	if tr != nil {
		for _, c := range rpc.cells {
			f.cells.add(c.rec, c.d)
		}
		f.rpc.merge(&rpc)
		f.cellTime += cellTime
		f.wall += wall
		f.passes++
		f.duplicates += dups
		f.expiries += expiries
		f.quarantined += quarantined
	}
	return nil
}

func (f *fleet) layers(m metrics) error {
	if f.passes == 0 {
		return nil
	}
	n := float64(f.passes)
	r := &f.rpc
	f.cells.set(m)
	m.set("campsvc.lease_rtt_p50_us", percentile(r.leaseUs, 50))
	m.set("campsvc.lease_rtt_p90_us", percentile(r.leaseUs, 90))
	m.set("campsvc.complete_rtt_p50_us", percentile(r.completeUs, 50))
	m.set("campsvc.complete_rtt_p90_us", percentile(r.completeUs, 90))
	m.set("campsvc.config_rtt_us", median(r.configUs))
	m.set("campsvc.empty_leases", float64(r.empty)/n)
	m.set("campsvc.retry_wait_s", r.retryWait.Seconds()/n)
	m.set("campsvc.worker_util", ratio(f.cellTime.Seconds(), f.wall.Seconds()*fleetWorkers))
	m.set("campsvc.duplicates", float64(f.duplicates))
	m.set("campsvc.expiries", float64(f.expiries))
	m.set("campsvc.quarantined", float64(f.quarantined))
	m.set("campsvc.heartbeats", float64(r.heartbeats))
	return nil
}

// rpcStats is what one worker's transport observed.
type rpcStats struct {
	leaseUs, completeUs, configUs []float64
	cells                         []cellTiming
	empty, heartbeats, fails      int
	regrants, duplicates          int
	retryWait                     time.Duration
}

type cellTiming struct {
	rec campaign.Record
	d   time.Duration
}

func (r *rpcStats) merge(o *rpcStats) {
	r.leaseUs = append(r.leaseUs, o.leaseUs...)
	r.completeUs = append(r.completeUs, o.completeUs...)
	r.configUs = append(r.configUs, o.configUs...)
	r.cells = append(r.cells, o.cells...)
	r.empty += o.empty
	r.heartbeats += o.heartbeats
	r.fails += o.fails
	r.regrants += o.regrants
	r.duplicates += o.duplicates
	r.retryWait += o.retryWait
}

type grant struct {
	at   time.Time
	span int32
	op   int64
}

// timedTransport wraps a worker's campsvc.Client and times every call
// from the worker's side. The worker's heartbeat goroutine shares it
// with the work loop, hence the lock.
type timedTransport struct {
	inner campsvc.Transport
	tr    *tracer
	work  int32 // the worker's campsvc.Work span

	mu      sync.Mutex
	grants  map[string]grant // lease id -> when it was granted
	emptyAt time.Time        // last empty grant, until the next call
	rpcStats
}

var _ campsvc.Transport = (*timedTransport)(nil)

// called closes a pending retry wait: the worker asked again.
func (t *timedTransport) called(now time.Time) {
	if !t.emptyAt.IsZero() {
		t.retryWait += now.Sub(t.emptyAt)
		t.emptyAt = time.Time{}
	}
}

// finish closes a retry wait the end of the pass cut short.
func (t *timedTransport) finish(end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.emptyAt.IsZero() && end.After(t.emptyAt) {
		t.retryWait += end.Sub(t.emptyAt)
	}
	t.emptyAt = time.Time{}
}

func (t *timedTransport) Lease(ctx context.Context, req campsvc.LeaseRequest) (campsvc.LeaseResponse, error) {
	start := time.Now()
	t.mu.Lock()
	t.called(start)
	t.mu.Unlock()
	sp := t.tr.begin("campsvc.Lease", t.work, 0)
	resp, err := t.inner.Lease(ctx, req)
	now := time.Now()
	t.tr.end(sp)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.leaseUs = append(t.leaseUs, us(now.Sub(start)))
	if err != nil {
		return resp, err
	}
	switch {
	case resp.Lease != nil:
		op := t.tr.newOp()
		t.grants[resp.Lease.ID] = grant{at: now, span: t.tr.begin("op.cell", t.work, op), op: op}
		if resp.Lease.Attempt > 1 {
			t.regrants++
		}
	case !resp.Done:
		t.empty++
		t.emptyAt = now
	}
	return resp, nil
}

func (t *timedTransport) Complete(ctx context.Context, req campsvc.CompleteRequest) (campsvc.CompleteResponse, error) {
	start := time.Now()
	t.mu.Lock()
	g, granted := t.grants[req.LeaseID]
	t.mu.Unlock()
	parent := t.work
	if granted {
		parent = g.span
	}
	sp := t.tr.begin("campsvc.Complete", parent, g.op)
	resp, err := t.inner.Complete(ctx, req)
	now := time.Now()
	t.tr.end(sp)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.completeUs = append(t.completeUs, us(now.Sub(start)))
	if err != nil {
		return resp, err
	}
	if resp.Duplicate {
		t.duplicates++
	}
	if granted {
		t.cells = append(t.cells, cellTiming{rec: req.Record, d: now.Sub(g.at)})
		t.tr.end(g.span)
		delete(t.grants, req.LeaseID)
	}
	return resp, nil
}

func (t *timedTransport) Heartbeat(ctx context.Context, req campsvc.HeartbeatRequest) (campsvc.HeartbeatResponse, error) {
	t.mu.Lock()
	t.heartbeats++
	t.mu.Unlock()
	return t.inner.Heartbeat(ctx, req)
}

func (t *timedTransport) Fail(ctx context.Context, req campsvc.FailRequest) (campsvc.FailResponse, error) {
	t.mu.Lock()
	t.fails++
	t.mu.Unlock()
	return t.inner.Fail(ctx, req)
}

func (t *timedTransport) Config(ctx context.Context) (campaign.Config, error) {
	start := time.Now()
	t.mu.Lock()
	t.called(start)
	t.mu.Unlock()
	sp := t.tr.begin("campsvc.Config", t.work, 0)
	cfg, err := t.inner.Config(ctx)
	t.tr.end(sp)
	d := time.Since(start)
	t.mu.Lock()
	t.configUs = append(t.configUs, us(d))
	t.mu.Unlock()
	return cfg, err
}

func (t *timedTransport) Status(ctx context.Context) (campsvc.Status, error) {
	return t.inner.Status(ctx)
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
