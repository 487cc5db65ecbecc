// Worker kits, state-cache tables and branch snapshots.
//
// A workerKit is the reusable per-worker execution state: the pooled
// runner, the DFS node free list, the event hasher and the outcome-key
// intern table. Kits are recycled through a package-level pool, so a
// campaign that calls Explore thousands of times pays the runner
// construction cost once. The canonical-state cache is not part of a
// kit: it is one table per Explore call, shared by that call's
// workers, recycled through its own small pool and invalidated by
// generation bump on checkout instead of being reallocated or zeroed.
//
// With Options.Checkpoints > 0 the DFS path nodes also carry branch
// snapshots (branchSnap), the retained state every schedule is
// positioned from: see coordinator.exploreItem.
package explore

import (
	"math/bits"
	"slices"
	"sync"

	"mtbench/internal/core"
	"mtbench/internal/sched"
)

// branchSnap is a forkable branch snapshot, owned by a live DFS path
// node (node.snap): the state hasher and the scheduler's position
// digest frozen at a multi-option decision point, before the node's
// own decision. A later run positions itself at the branch by
// restoring the hasher and fast-forwarding the decisions above the
// node (sched.Config.FastForward), with the digest verified on arrival
// (Config.FFCheck). The snapshot is valid for every sibling the node
// still has — it predates the choice — and is recycled through the
// worker's nodePool when the node pops.
type branchSnap struct {
	hasher hasherSnap
	sched  sched.Snapshot
}

// workerKit is the per-worker reusable execution state.
type workerKit struct {
	runner *sched.Runner
	pool   *nodePool
	hasher *stateHasher

	// outKeys interns the "verdict:outcome" histogram keys per verdict,
	// so recording a run allocates nothing once a (verdict, outcome)
	// pair has been seen. Outcome strings are interned per runner,
	// making the inner map lookups cheap and stable.
	outKeys [8]map[string]string

	// planned is the scratch buffer plan builds the next run's
	// fast-forward sequence into.
	planned []core.ThreadID
}

// kitPool recycles worker kits process-wide. Runners keep their
// virtual-thread goroutines parked between explorations — that is the
// point — so the pool is bounded to keep the idle population small.
var (
	kitMu   sync.Mutex
	kitFree []*workerKit
)

const maxPooledKits = 16

func getKit() *workerKit {
	kitMu.Lock()
	if n := len(kitFree); n > 0 {
		k := kitFree[n-1]
		kitFree = kitFree[:n-1]
		kitMu.Unlock()
		return k
	}
	kitMu.Unlock()
	return &workerKit{runner: sched.NewRunner(), pool: newNodePool()}
}

// release returns the kit to the pool (or closes its runner when the
// pool is full).
func (k *workerKit) release() {
	kitMu.Lock()
	if len(kitFree) < maxPooledKits {
		kitFree = append(kitFree, k)
		kitMu.Unlock()
		return
	}
	kitMu.Unlock()
	k.runner.Close()
}

// reductionFor prepares the kit's reduction bundle for one
// exploration: reuse the hasher and point the worker at the
// exploration's shared state cache.
func (k *workerKit) reductionFor(opts Options, cache *stateCache) *reduction {
	if !opts.StateCache {
		return nil
	}
	if k.hasher == nil {
		k.hasher = newStateHasher()
	}
	r := &reduction{hasher: k.hasher, cache: cache}
	r.listeners = append(r.listeners, core.Listener(k.hasher))
	r.listeners = append(r.listeners, opts.Listeners...)
	return r
}

// cachePool recycles state-cache tables process-wide, so repeated
// Explore calls allocate no table. A table is multi-megabyte, so the
// pool is small; when it is full the oldest table is dropped.
var (
	cacheMu   sync.Mutex
	cacheFree []*stateCache
)

const maxPooledCaches = 4

// getStateCache checks out an empty table of at least entries slots,
// rounded up to a power of two.
func getStateCache(entries int) *stateCache {
	n := 1 << bits.Len(uint(entries-1))
	cacheMu.Lock()
	for i, c := range cacheFree {
		if len(c.ents) == n {
			cacheFree = slices.Delete(cacheFree, i, i+1)
			cacheMu.Unlock()
			c.reset()
			return c
		}
	}
	cacheMu.Unlock()
	return &stateCache{mask: uint64(n - 1), gen: 1, ents: make([]cacheEnt, n)}
}

// release returns the table to the pool once no worker uses it.
func (c *stateCache) release() {
	cacheMu.Lock()
	if len(cacheFree) == maxPooledCaches {
		cacheFree = slices.Delete(cacheFree, 0, 1)
	}
	cacheFree = append(cacheFree, c)
	cacheMu.Unlock()
}

// outKey returns the interned outcome-histogram key for a run.
func (k *workerKit) outKey(v core.Verdict, outcome string) string {
	i := int(v)
	if i >= len(k.outKeys) {
		return v.String() + ":" + outcome
	}
	m := k.outKeys[i]
	if m == nil {
		m = make(map[string]string, 8)
		k.outKeys[i] = m
	}
	key, ok := m[outcome]
	if !ok {
		key = v.String() + ":" + outcome
		if len(m) < 1<<12 {
			m[outcome] = key
		}
	}
	return key
}

// plan rebuilds the kit's scratch copy of the decisions above path
// node idx — the shard prefix plus the choices of path[:idx], the
// sequence a run fast-forwards to reach that node — and returns it.
// The returned slice aliases the kit's buffer and is valid until the
// next plan call.
func (k *workerKit) plan(e *explorer, idx int) []core.ThreadID {
	k.planned = append(k.planned[:0], e.prefix...)
	for _, n := range e.path[:idx] {
		k.planned = append(k.planned, n.chosen())
	}
	return k.planned
}
