package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/campsvc"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must honour.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, trace: trace, root: "..", scratch: t.TempDir(), tiny: true}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(names), len(workloads))
	}
	var e2e, layer []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("end_to_end = %v, harness declares %v", e2e, endToEndMetrics)
	}
	if !slices.Equal(layer, perLayerMetrics()) {
		t.Errorf("per_layer = %v, harness declares %v", layer, perLayerMetrics())
	}
}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, and checks that it passes its own checks and emits exactly
// the metrics BENCHMARK.json names, each with its unit.
func TestTinyWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for name, mk := range workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			res, host, err := bench(tinyOptions(t, name, trace), mk, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			if host.PingpongNs <= 0 || host.GoVersion == "" || host.NProc <= 0 {
				t.Errorf("%s: incomplete host fingerprint %+v", name, host)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, w := range want {
				got, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, w.Name)
				case got.Unit != w.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", name, w.Name, got.Unit, w.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, w.Name, got.Value)
				}
			}
		}
	}
}

// doctoredBaseline writes a copy of the checked-in baseline whose first
// record claims the bug was found one run earlier than it is.
func doctoredBaseline(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../campaign/baseline.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	var rec campaign.Record
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.FirstBug <= 1 {
		t.Fatalf("first baseline record %v has no first bug to move", rec)
	}
	rec.FirstBug--
	if lines[1], err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.jsonl")
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDoctoredExpectations checks that each workload's output check
// bites: a wrong expectation must show up as failed operations.
func TestDoctoredExpectations(t *testing.T) {
	wrongBugs := func(e *env) workload {
		x := newExhaust(e).(*exhaust)
		x.targets[1].want = []string{philDeadlock2} // the fixed program is clean
		return x
	}
	wrongSigs := func(e *env) workload {
		h := newHunt(e).(*hunt)
		h.targets = []huntTarget{{"abastack", map[string]bool{"fail:some other bug": true}}}
		return h
	}
	cases := []struct {
		workload string
		mk       func(*env) workload
		baseline string
	}{
		{"exhaust", wrongBugs, ""},
		{"fuzz-hunt", wrongSigs, ""},
		{"campaign", newCampaign, doctoredBaseline(t)},
		{"fleet", newFleet, doctoredBaseline(t)},
	}
	for _, c := range cases {
		o := tinyOptions(t, c.workload, false)
		o.baseline = c.baseline
		var log bytes.Buffer
		res, _, err := bench(o, c.mk, &log)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: doctored expectation passed: attempted=%d failed=%d", c.workload, res.Attempted, res.Failed)
		}
		if log.Len() == 0 {
			t.Errorf("%s: failed check left no diagnostic", c.workload)
		}
	}
}

// TestFleetRefusesStaleRequests: a request a cancelled worker left in
// flight at the end of one pass must not take a lease from the next
// pass's coordinator, or that cell waits out a whole lease TTL.
func TestFleetRefusesStaleRequests(t *testing.T) {
	f := newFleet(&env{tmp: t.TempDir(), baseline: "../campaign/baseline.jsonl", log: io.Discard}).(*fleet)
	if err := f.setup(); err != nil {
		t.Fatal(err)
	}
	defer f.close()
	coord := func() *campsvc.Coordinator {
		c, err := campsvc.NewCoordinator(f.base.cfg, nil, campsvc.CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	stale := f.install(coord())
	current := coord()
	f.install(current)
	if _, err := stale[0].Lease(context.Background(), campsvc.LeaseRequest{Worker: "w0"}); err == nil {
		t.Error("a request to the previous pass's coordinator was served")
	}
	if st := current.Status(); st.Leased != 0 {
		t.Errorf("stale request leased %d cells from the current coordinator", st.Leased)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("harness.pass", -1, 0, at(0), at(100))
	// Two overlapping children cover [10,60] of the root.
	a := tr.add("campsvc.Work", root, 0, at(10), at(50))
	tr.add("campsvc.Work", root, 0, at(20), at(60))
	tr.add("campsvc.Lease", a, 0, at(10), at(15))
	got := tr.selfTimes()
	want := map[string]time.Duration{
		"harness": 50 * time.Millisecond,
		"campsvc": 35*time.Millisecond + 40*time.Millisecond + 5*time.Millisecond,
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if p := percentile(xs, 50); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(xs, 90); p != 9 {
		t.Errorf("p90 = %v, want 9", p)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}
