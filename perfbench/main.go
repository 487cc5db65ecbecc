// Command perfbench is mtbench's benchmark harness. It drives the
// exploration, fuzzing, campaign and campaign-service layers through
// their public functions on four fixed workloads (exhaust, fuzz-hunt,
// campaign, fleet), checks every output the layers produce, and prints
// one JSON result line:
//
//	perfbench --workload exhaust --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with in-memory spans around every
// layer call, the per-layer probes run too, and the result carries the
// per-layer metrics. README.md documents the workloads, the metrics and
// how they relate. run.sh builds the harness and runs it from the root
// of a checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times each run sets its workload up; setup_s
// is the median, so one cold start or GC pause does not decide it.
const setupReps = 11

// workload is one benchmark workload. A pass runs a fixed set of
// timed operations; the harness repeats passes until the run's time is
// up. Per-layer statistics accumulate only while tracing.
type workload interface {
	// setup prepares everything the first timed operation needs:
	// binding programs, loading the baseline, starting the listener,
	// and one small warm-up operation.
	setup() error
	// pass runs one pass of timed operations into t. tr is nil when
	// tracing is off; parent is the span the pass hangs under.
	pass(t *tally, tr *tracer, parent int32) error
	// layers fills the workload's per-layer metrics from what traced
	// passes accumulated, running any extra measurement it needs.
	layers(m metrics) error
	close()
}

// tally is what passes report to the harness.
type tally struct {
	opMs      []float64     // latency of each timed unit, ms
	units     int           // operations completed (throughput numerator)
	attempted int           // operations checked
	failed    int           // operations whose check failed
	busy      time.Duration // wall time the timed units cover
	passes    int
}

// env is what a workload gets from the harness.
type env struct {
	tmp      string // scratch directory, removed when the run ends
	seed     int64
	tiny     bool      // small inputs, for the harness's own tests
	baseline string    // campaign baseline path
	log      io.Writer // diagnostics for failed checks
}

var workloads = map[string]func(*env) workload{
	"exhaust":   newExhaust,
	"fuzz-hunt": newHunt,
	"campaign":  newCampaign,
	"fleet":     newFleet,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	scratch  string
	tiny     bool   // small inputs, for the harness's own tests
	baseline string // "" = <root>/campaign/baseline.jsonl
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

// set records a metric under its declared unit (see units.go).
func (m metrics) set(name string, v float64) {
	u, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metricValue{Value: v, Unit: u}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: exhaust, fuzz-hunt, campaign or fleet")
	fs.Int64Var(&o.seed, "seed", 0, "workload seed (orders the operations of a pass)")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long to measure, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "mtbench checkout root")
	fs.StringVar(&o.scratch, "scratch", ".bench_build", "directory for stores and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	mk, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	res, host, err := bench(o, mk, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]hostInfo{"host": host}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench runs one workload: repeated set-up, then passes until the
// time is up, then (traced) probes and per-layer metrics.
func bench(o options, mk func(*env) workload, log io.Writer) (*result, hostInfo, error) {
	if o.baseline == "" {
		o.baseline = filepath.Join(o.root, "campaign", "baseline.jsonl")
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, hostInfo{}, err
	}
	tmp, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return nil, hostInfo{}, err
	}
	defer os.RemoveAll(tmp)
	e := &env{tmp: tmp, seed: o.seed, tiny: o.tiny, baseline: o.baseline, log: log}

	var w workload
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = mk(e)
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, hostInfo{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	m := metrics{}
	var t *tally
	if !o.trace {
		t = &tally{}
		if err := measure(w, t, budget); err != nil {
			return nil, hostInfo{}, err
		}
		m.set("setup_s", median(setups))
		m.set("op_p50_ms", percentile(t.opMs, 50))
		m.set("op_p90_ms", percentile(t.opMs, 90))
		m.set("ops_per_s", float64(t.units)/t.busy.Seconds())
		m.set("peak_rss_mb", peakRSSMB())
	} else {
		t, err = traced(o, e, w, budget, m)
		if err != nil {
			return nil, hostInfo{}, err
		}
	}
	host := fingerprint(e.tiny)
	if o.trace {
		m.set("host.pingpong_ns", host.PingpongNs)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, host, nil
}

// measure runs whole untraced passes until budget has elapsed (at
// least one).
func measure(w workload, t *tally, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for t.passes == 0 || time.Now().Before(deadline) {
		if _, err := runPass(w, t, nil); err != nil {
			return err
		}
	}
	return timed(t)
}

// runPass runs one pass and returns its wall time, checks included.
func runPass(w workload, t *tally, tr *tracer) (time.Duration, error) {
	sp := tr.begin("harness.pass", -1, 0)
	start := time.Now()
	err := w.pass(t, tr, sp)
	d := time.Since(start)
	tr.end(sp)
	t.passes++
	return d, err
}

func timed(t *tally) error {
	if t.attempted == 0 || t.busy <= 0 {
		return errors.New("no operation was timed")
	}
	return nil
}

// traced is the per-layer run. Untraced and traced passes alternate
// until the budget has elapsed, so the tracing overhead compares
// passes run under the same conditions; per-layer statistics come from
// the traced passes only. Then the probes run. Every per-layer metric
// is emitted; a layer the workload does not exercise reads 0.
func traced(o options, e *env, w workload, budget time.Duration, m metrics) (*tally, error) {
	for _, s := range perLayerMetrics() {
		m.set(s.name, 0)
	}
	tr := newTracer()
	t := &tally{}
	var plain, spanned []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		ptr, into := (*tracer)(nil), &plain
		if i%2 == 1 {
			ptr, into = tr, &spanned
		}
		d, err := runPass(w, t, ptr)
		if err != nil {
			return nil, err
		}
		*into = append(*into, d.Seconds())
	}
	if err := timed(t); err != nil {
		return nil, err
	}
	if err := w.layers(m); err != nil {
		return nil, err
	}
	if err := runProbes(e, m); err != nil {
		return nil, err
	}
	over := median(spanned) - median(plain)
	m.set("trace.overhead_s", over)
	m.set("trace.overhead_frac", over/median(plain))
	m.set("trace.spans", float64(len(tr.spans)))
	for layer, s := range tr.selfTimes() {
		name := "trace.self_s." + layer
		if _, ok := metricUnits[name]; !ok {
			return nil, fmt.Errorf("span layer %q has no self-time metric", layer)
		}
		m.set(name, s.Seconds())
	}
	m.set("failed_frac", float64(t.failed)/float64(t.attempted))
	if err := tr.write(filepath.Join(o.scratch, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	return t, nil
}

// peakRSSMB is the process's peak resident set. Each run is its own
// process running one workload, so the peak is the workload's.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(len(s))*p/100)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median is the middle of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mallocs reads the process's cumulative allocation count. It stops
// the world, so only traced runs call it.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
