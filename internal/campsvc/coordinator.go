// The coordinator: all campaign state behind one mutex. Leases,
// attempts, backoff and quarantine are plain data transitions driven
// by an injectable clock — no background goroutines, no timers.
// Expiry is enforced lazily: every API call first reaps whatever the
// current time has invalidated, which makes each recovery path a
// deterministic unit test (advance the fake clock, call the API,
// assert the transition) instead of a sleep-and-hope race.
package campsvc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/core"
)

// Coordinator defaults.
const (
	DefaultLeaseTTL    = 30 * time.Second
	DefaultMaxAttempts = 3
	DefaultRetryBase   = time.Second
	DefaultRetryMax    = time.Minute
)

// CoordinatorOptions tune the coordinator's fault model.
type CoordinatorOptions struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// (0 = DefaultLeaseTTL). Heartbeats are requested every TTL/3.
	LeaseTTL time.Duration
	// EvictAfter is how long a worker may be silent before it is
	// marked evicted and its leases are expired immediately instead of
	// waiting out their deadlines (0 = 2×LeaseTTL).
	EvictAfter time.Duration
	// MaxAttempts is how many lease grants a cell gets before it is
	// quarantined as poison (0 = DefaultMaxAttempts).
	MaxAttempts int
	// RetryBase and RetryMax bound the exponential backoff a failed
	// cell waits before re-entering the queue (0 = defaults). The
	// actual delay is jittered into [d/2, d].
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed seeds the backoff jitter (jitter never affects results,
	// only scheduling, so any seed keeps stores byte-identical).
	Seed int64
	// Now is the clock (nil = time.Now). Tests inject a fake.
	Now func() time.Time
	// Logf, when set, receives one line per state transition.
	Logf func(format string, args ...any)
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.EvictAfter <= 0 {
		o.EvictAfter = 2 * o.LeaseTTL
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = DefaultRetryMax
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// cellPhase is a cell's lifecycle state.
type cellPhase int

const (
	cellPending     cellPhase = iota // waiting for a lease grant
	cellLeased                       // owned by a live lease
	cellDone                         // settled with a real record
	cellQuarantined                  // settled as poison
)

// cellEntry is one matrix cell's coordinator-side state.
type cellEntry struct {
	cell        campaign.Cell
	phase       cellPhase
	attempts    int       // lease grants so far
	notBefore   time.Time // backoff gate for the next grant
	lease       *lease    // non-nil iff phase == cellLeased
	lastFailure string
}

// lease is one live grant.
type lease struct {
	id       string
	key      string // cell key
	worker   string
	deadline time.Time
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	name      string
	lastSeen  time.Time
	completed int
	failed    int
	evicted   bool
}

// Coordinator shards one campaign across a worker fleet. All methods
// are safe for concurrent use; construction pins the campaign config
// and pre-settles cells the store already holds, so serving an
// existing store resumes the campaign exactly like campaign.Run does.
type Coordinator struct {
	mu      sync.Mutex
	cfg     campaign.Config
	store   *campaign.Store
	opts    CoordinatorOptions
	cells   map[string]*cellEntry
	order   []string // canonical cell-key order, the grant scan order
	leases  map[string]*lease
	workers map[string]*workerState
	rng     *rand.Rand
	leaseN  int
	open    int // cells not yet settled
	done    chan struct{}
	doneErr error
}

// NewCoordinator builds a coordinator for cfg over store. A nil store
// gets an in-memory one; an existing store must pin the same config
// fingerprint (exactly campaign.Run's resumption contract), and its
// completed cells are pre-settled. The store is switched to
// fsync-on-append: the coordinator's copy is the only copy of the
// fleet's work.
func NewCoordinator(cfg campaign.Config, store *campaign.Store, opts CoordinatorOptions) (*Coordinator, error) {
	if store == nil {
		store = campaign.NewMemStore(cfg)
	}
	if got, want := store.Config().Fingerprint(), cfg.Fingerprint(); got != want {
		return nil, fmt.Errorf("campsvc: store config mismatch: store pins %s, coordinator asked for %s", got, want)
	}
	cfg = store.Config() // the normalized form
	store.SetSync(true)
	opts = opts.withDefaults()

	c := &Coordinator{
		cfg:     cfg,
		store:   store,
		opts:    opts,
		cells:   map[string]*cellEntry{},
		leases:  map[string]*lease{},
		workers: map[string]*workerState{},
		rng:     core.NewRand(opts.Seed),
		done:    make(chan struct{}),
	}
	for _, cell := range campaign.Cells(cfg) {
		key := cell.Key()
		e := &cellEntry{cell: cell, phase: cellPending}
		if store.Has(key) {
			e.phase = cellDone
		} else {
			c.open++
		}
		c.cells[key] = e
		c.order = append(c.order, key)
	}
	if c.open == 0 {
		c.finishLocked()
	}
	return c, nil
}

// Config returns the campaign config the coordinator serves.
func (c *Coordinator) Config() campaign.Config { return c.cfg }

// Done is closed once every cell is settled and the store compacted.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Wait blocks until the campaign completes or ctx is cancelled, then
// returns the completion error (a failed final compaction).
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.doneErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Lease grants the requesting worker the first grantable cell in
// canonical order, or reports done / retry-later.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if req.Worker == "" {
		return LeaseResponse{}, fmt.Errorf("campsvc: lease request without worker name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.touchLocked(req.Worker, now)
	c.reapLocked(now)

	if c.open == 0 {
		return LeaseResponse{Done: true}, nil
	}

	// Scan in canonical order so the fleet drains the matrix in the
	// same order campaign.Run would; track the nearest backoff gate
	// for the retry hint.
	var nextGate time.Time
	for _, key := range c.order {
		e := c.cells[key]
		if e.phase != cellPending {
			continue
		}
		if e.notBefore.After(now) {
			if nextGate.IsZero() || e.notBefore.Before(nextGate) {
				nextGate = e.notBefore
			}
			continue
		}
		c.leaseN++
		l := &lease{
			id:       fmt.Sprintf("L%06d", c.leaseN),
			key:      key,
			worker:   req.Worker,
			deadline: now.Add(c.opts.LeaseTTL),
		}
		e.phase = cellLeased
		e.attempts++
		e.lease = l
		c.leases[l.id] = l
		c.opts.Logf("campsvc: lease %s: cell %s -> worker %s (attempt %d/%d)",
			l.id, key, req.Worker, e.attempts, c.opts.MaxAttempts)
		return LeaseResponse{Lease: &Lease{
			ID:                l.id,
			Cell:              e.cell,
			Deadline:          l.deadline,
			HeartbeatMS:       (c.opts.LeaseTTL / 3).Milliseconds(),
			ConfigFingerprint: c.cfg.Fingerprint(),
			Attempt:           e.attempts,
		}}, nil
	}

	// Nothing grantable right now: all remaining cells are leased out
	// or backing off. Hint a retry at the nearest gate (or a heartbeat
	// interval when only leased cells remain).
	retry := c.opts.LeaseTTL / 3
	if !nextGate.IsZero() {
		if until := nextGate.Sub(now); until < retry {
			retry = until
		}
	}
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	return LeaseResponse{RetryMS: retry.Milliseconds()}, nil
}

// Heartbeat extends the lease deadline, or reports the lease lost.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.touchLocked(req.Worker, now)
	c.reapLocked(now)

	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.Worker {
		return HeartbeatResponse{Lost: true}, nil
	}
	l.deadline = now.Add(c.opts.LeaseTTL)
	return HeartbeatResponse{Deadline: l.deadline}, nil
}

// Complete ingests a finished cell's record. Ingestion is idempotent
// by cell key: the first completion settles the cell (even if the
// reporting worker's lease already expired — the result is just as
// valid), later completions are acknowledged as duplicates and
// dropped. Finders are deterministic, so a dropped duplicate is
// byte-identical to the record already stored.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.touchLocked(req.Worker, now)
	c.reapLocked(now)

	key := req.Record.Key()
	e, ok := c.cells[key]
	if !ok {
		return CompleteResponse{}, fmt.Errorf("campsvc: completion for unknown cell %s", key)
	}
	if e.phase == cellDone || e.phase == cellQuarantined {
		return CompleteResponse{Duplicate: true}, nil
	}
	c.dropLeaseLocked(e)
	if w := c.workers[req.Worker]; w != nil {
		w.completed++
	}
	if err := c.settleLocked(e, req.Record, cellDone); err != nil {
		return CompleteResponse{}, err
	}
	c.opts.Logf("campsvc: cell %s completed by worker %s (%d open)", key, req.Worker, c.open)
	return CompleteResponse{}, nil
}

// Fail reports an executable-but-failing cell (a panicking finder).
// The failure consumes the cell's current attempt: the cell backs off
// and re-queues, or — at MaxAttempts — is quarantined.
func (c *Coordinator) Fail(req FailRequest) (FailResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.touchLocked(req.Worker, now)
	c.reapLocked(now)

	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.Worker {
		// Stale report: the lease already expired and its failure was
		// already accounted. Nothing to do.
		return FailResponse{}, nil
	}
	e := c.cells[l.key]
	c.dropLeaseLocked(e)
	if w := c.workers[req.Worker]; w != nil {
		w.failed++
	}
	if err := c.failLocked(e, now, fmt.Sprintf("worker %s: %s", req.Worker, firstLine(req.Reason))); err != nil {
		return FailResponse{}, err
	}
	return FailResponse{Quarantined: e.phase == cellQuarantined}, nil
}

// touchLocked records worker liveness.
func (c *Coordinator) touchLocked(name string, now time.Time) {
	if name == "" {
		return
	}
	w := c.workers[name]
	if w == nil {
		w = &workerState{name: name}
		c.workers[name] = w
	}
	w.lastSeen = now
	w.evicted = false
}

// reapLocked enforces time: expired leases fail their cell's attempt
// and silent workers are evicted (which expires their leases early —
// a worker that stopped heartbeating everything is gone, not slow).
func (c *Coordinator) reapLocked(now time.Time) {
	for name, w := range c.workers {
		if !w.evicted && now.Sub(w.lastSeen) >= c.opts.EvictAfter {
			w.evicted = true
			c.opts.Logf("campsvc: evicting worker %s (silent for %s)", name, now.Sub(w.lastSeen))
			for _, l := range c.leases {
				if l.worker == name {
					l.deadline = now // expire below
				}
			}
		}
	}
	for id, l := range c.leases {
		if l.deadline.After(now) {
			continue
		}
		e := c.cells[l.key]
		delete(c.leases, id)
		e.lease = nil
		// settleLocked errors (a failing store write) surface on the
		// next Complete/Fail; expiry itself has no caller to fail.
		_ = c.failLocked(e, now, fmt.Sprintf("lease %s expired on worker %s", id, l.worker))
	}
}

// failLocked accounts one failed attempt: backoff-and-requeue, or
// quarantine at the attempt limit.
func (c *Coordinator) failLocked(e *cellEntry, now time.Time, reason string) error {
	e.lastFailure = reason
	if e.attempts >= c.opts.MaxAttempts {
		rec := campaign.Record{
			Program:  e.cell.Program,
			Finder:   e.cell.Finder,
			Seed:     e.cell.Seed,
			Budget:   e.cell.Budget,
			Bugs:     []string{},
			FirstBug: -1,
			Outcome:  fmt.Sprintf("quarantined: %d failed attempts; last: %s", e.attempts, reason),
		}
		c.opts.Logf("campsvc: quarantining poison cell %s: %s", e.cell.Key(), reason)
		return c.settleLocked(e, rec, cellQuarantined)
	}
	d := c.backoffLocked(e.attempts)
	e.phase = cellPending
	e.notBefore = now.Add(d)
	c.opts.Logf("campsvc: cell %s failed attempt %d/%d (%s), retrying in %s",
		e.cell.Key(), e.attempts, c.opts.MaxAttempts, reason, d)
	return nil
}

// backoffLocked is exponential in the attempt count, capped, and
// jittered into [d/2, d] so a fleet's retries do not synchronize.
func (c *Coordinator) backoffLocked(attempts int) time.Duration {
	d := c.opts.RetryBase
	for i := 1; i < attempts && d < c.opts.RetryMax; i++ {
		d *= 2
	}
	if d > c.opts.RetryMax {
		d = c.opts.RetryMax
	}
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// dropLeaseLocked detaches a cell's live lease, if any.
func (c *Coordinator) dropLeaseLocked(e *cellEntry) {
	if e.lease != nil {
		delete(c.leases, e.lease.id)
		e.lease = nil
	}
}

// settleLocked finalizes a cell: the record is appended (fsynced) and
// the campaign finishes when the last open cell settles.
func (c *Coordinator) settleLocked(e *cellEntry, rec campaign.Record, phase cellPhase) error {
	if err := c.store.Append(rec); err != nil {
		return err
	}
	e.phase = phase
	c.open--
	if c.open == 0 {
		c.finishLocked()
	}
	return nil
}

// finishLocked compacts the store to its canonical (byte-comparable)
// form and releases waiters.
func (c *Coordinator) finishLocked() {
	c.doneErr = c.store.Compact()
	close(c.done)
	c.opts.Logf("campsvc: campaign complete (%d cells)", len(c.order))
}

// firstLine truncates a failure reason (panic reasons carry whole
// stacks) to something a record or log line can hold.
func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
		if i > 200 {
			return s[:i] + "..."
		}
	}
	return s
}
