package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mtbench/internal/campaign"
)

// The campaign workload: the checked-in 56-cell baseline matrix through
// campaign.Run with a pool of 2 workers and a file store without fsync,
// a fresh store each pass. One client; each cell is one checked
// operation and the timed unit.

const campaignWorkers = 2

// baseline is the checked-in campaign store the campaign and fleet
// workloads must reproduce byte for byte.
type baseline struct {
	cfg   campaign.Config
	recs  []campaign.Record
	raw   []byte
	lines map[string][]byte // cell key -> record line
	keys  []string          // cell keys in store order
}

func loadBaseline(path string) (*baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read baseline: %w", err)
	}
	cfg, recs, err := campaign.Load(path)
	if err != nil {
		return nil, err
	}
	b := &baseline{cfg: cfg, recs: recs, raw: raw}
	b.lines, b.keys, err = recordLines(raw)
	if err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return b, nil
}

// recordLines splits a store file into its record lines by cell key.
func recordLines(data []byte) (map[string][]byte, []string, error) {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	out := map[string][]byte{}
	var keys []string
	for _, ln := range lines[min(1, len(lines)):] { // line 0 is the meta line
		var r campaign.Record
		if err := json.Unmarshal(ln, &r); err != nil {
			return nil, nil, fmt.Errorf("bad record line %q: %w", ln, err)
		}
		out[r.Key()] = ln
		keys = append(keys, r.Key())
	}
	return out, keys, nil
}

// check compares a finished store file with the baseline and returns
// the cells whose record differs. When the file differs only outside
// the record lines (meta line, order), every cell counts as failed.
func (b *baseline) check(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read store: %w", err)
	}
	if bytes.Equal(data, b.raw) {
		return nil, nil
	}
	failed := map[string]bool{}
	got, _, _ := recordLines(data) // an unparsable store matches no cell
	for _, k := range b.keys {
		if !bytes.Equal(got[k], b.lines[k]) {
			failed[k] = true
		}
	}
	if len(failed) == 0 {
		failed = b.all()
	}
	return failed, nil
}

// all is every baseline cell, the failed set of a store that cannot
// be matched record by record.
func (b *baseline) all() map[string]bool {
	out := make(map[string]bool, len(b.keys))
	for _, k := range b.keys {
		out[k] = true
	}
	return out
}

// gate runs the regression gate (campaign compare -gate, slack 1) of
// the store at path against the baseline.
func (b *baseline) gate(path string) error {
	_, current, err := campaign.Load(path)
	if err != nil {
		return err
	}
	return campaign.Compare(b.recs, current, 1.0).Gate()
}

// cellStats accumulates per-finder cell time and runs (traced runs).
type cellStats struct {
	time map[string]time.Duration
	runs map[string]int
	n    map[string]int
}

func newCellStats() cellStats {
	return cellStats{time: map[string]time.Duration{}, runs: map[string]int{}, n: map[string]int{}}
}

func (c cellStats) add(rec campaign.Record, d time.Duration) {
	c.time[rec.Finder] += d
	c.runs[rec.Finder] += rec.Runs
	c.n[rec.Finder]++
}

func (c cellStats) set(m metrics) {
	for _, f := range baselineFinders {
		if c.n[f] == 0 {
			continue
		}
		m.set("campaign.cell_s."+f, c.time[f].Seconds()/float64(c.n[f]))
		m.set("campaign.runs_per_s."+f, ratio(float64(c.runs[f]), c.time[f].Seconds()))
	}
}

type campaignWL struct {
	e     *env
	base  *baseline
	cfg   campaign.Config
	index map[string]int // cell key -> position in the pool's queue

	// Traced accumulators.
	cells    cellStats
	cellTime time.Duration
	wall     time.Duration
}

func newCampaign(e *env) workload { return &campaignWL{e: e, cells: newCellStats()} }

func (c *campaignWL) setup() error {
	base, err := loadBaseline(c.e.baseline)
	if err != nil {
		return err
	}
	c.base = base
	c.cfg = base.cfg
	c.cfg.Workers = campaignWorkers
	cells := campaign.Cells(c.cfg)
	c.index = make(map[string]int, len(cells))
	for i, cell := range cells {
		c.index[cell.Key()] = i
	}
	// Warm-up: the matrix's first cell through the cell sandbox.
	if _, err := campaign.ExecCell(context.Background(), c.cfg, cells[0]); err != nil {
		return fmt.Errorf("warm-up cell: %w", err)
	}
	return nil
}

func (c *campaignWL) pass(t *tally, tr *tracer, parent int32) error {
	path := filepath.Join(c.e.tmp, "campaign.jsonl")
	sp := tr.begin("campaign.Create", parent, 0)
	store, err := campaign.Create(path, c.cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer os.Remove(path)

	// campaign.Run reports each cell after its append. A pool worker
	// takes its next cell as soon as it has reported, so the cell the
	// pool queued at position i started when the (i-workers+1)th
	// report arrived (the first cells at the pass start).
	var done []time.Time
	var recs []campaign.Record
	run := tr.begin("campaign.Run", parent, 0)
	t0 := time.Now()
	_, err = campaign.Run(context.Background(), c.cfg, store, func(_, _ int, rec campaign.Record) {
		done = append(done, time.Now())
		recs = append(recs, rec)
	})
	wall := time.Since(t0)
	tr.end(run)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var cellTime time.Duration
	for j, rec := range recs {
		start := t0
		if i := c.index[rec.Key()] - campaignWorkers; i >= 0 && i < len(done) {
			start = done[i]
		}
		d := max(done[j].Sub(start), 0)
		cellTime += d
		t.opMs = append(t.opMs, ms(d))
		if tr != nil {
			tr.add("op.cell", run, tr.newOp(), start, done[j])
			c.cells.add(rec, d)
		}
	}
	t.units += len(recs)
	t.busy += wall

	ck := tr.begin("harness.check", parent, 0)
	failed, err := c.base.check(path)
	if err != nil {
		return err
	}
	gate := tr.begin("campaign.Gate", ck, 0)
	gerr := c.base.gate(path)
	tr.end(gate)
	tr.end(ck)
	if gerr != nil {
		fmt.Fprintf(c.e.log, "campaign: %v\n", gerr)
		if len(failed) == 0 {
			failed = c.base.all()
		}
	}
	reportCells(c.e, "campaign", t, c.base, len(failed))
	if tr != nil {
		c.cellTime += cellTime
		c.wall += wall
	}
	return nil
}

// reportCells counts one pass's cells into t: every baseline cell is
// attempted, failed of them failed.
func reportCells(e *env, name string, t *tally, b *baseline, failed int) {
	t.attempted += len(b.keys)
	t.failed += failed
	if failed > 0 {
		fmt.Fprintf(e.log, "%s: %d of %d cells failed their check\n", name, failed, len(b.keys))
	}
}

func (c *campaignWL) layers(m metrics) error {
	c.cells.set(m)
	m.set("campaign.pool_util", ratio(c.cellTime.Seconds(), c.wall.Seconds()*campaignWorkers))
	return nil
}

func (c *campaignWL) close() {}
