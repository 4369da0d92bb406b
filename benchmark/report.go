package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// metricDef is one reported metric. The lists below must match
// BENCHMARK.json at the repository root (benchmark_test.go checks it).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them: an "op" is the workload's unit of work (one
// routing run or one service tick) and a "delivery" is the workload's
// unit of delivery (a whole batch routing problem, or one service
// packet). There is no op latency tail: a high percentile of the quiet
// windows' ops picks out the moments the host disturbed them, and over
// the whole run it measures the host's busy spells.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pkts_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"deliver_steps_p50", "steps"},
	{"deliver_steps_p99", "steps"},
	{"delivered_ratio", "ratio"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics of single layers. Every workload
// reports every one; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"gen.busy_pct", "%"},
	{"core.busy_pct", "%"},
	{"sim.busy_pct", "%"},
	{"dynamic.busy_pct", "%"},
	{"service.busy_pct", "%"},
	{"http.busy_pct", "%"},
	{"persist.busy_pct", "%"},
	{"topo.setup_pct", "%"},
	{"workload.setup_pct", "%"},
	{"core.setup_pct", "%"},
	{"sim.setup_pct", "%"},
	{"service.setup_pct", "%"},
	{"core.excited_success_ratio", "ratio"},
	{"sim.makespan_ratio", "ratio"},
	{"sim.steps_per_s", "1/s"},
	{"sim.moves_per_s", "1/s"},
	{"sim.useful_move_ratio", "ratio"},
	{"sim.deflections_per_pkt", "count"},
	{"dynamic.steps_per_s", "1/s"},
	{"dynamic.deflections_per_pkt", "count"},
	{"dynamic.live_mean", "count"},
	{"service.quota_admit_ratio", "ratio"},
	{"http.requests_per_s", "1/s"},
	{"persist.snapshot_kb", "KiB"},
	{"gen.late_ms_p99", "ms"},
	{"gen.late_ms_max", "ms"},
}

// report collects one workload run's metrics, operation counts and check
// failures.
type report struct {
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// op counts one attempted operation; a non-nil error counts it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// check counts one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	// Keep the first few messages; the count carries the rest.
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every measured metric as "metric <name> <value> <unit>",
// then the result line carrying the requested list: the end-to-end
// metrics untraced, the per-layer ones traced. A listed metric that the
// run did not produce, or that is not finite, fails the run.
func (r *report) emit(w io.Writer, traced bool) result {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if v, ok := r.metrics[m.name]; ok {
				fmt.Fprintf(w, "metric %s %v %s\n", m.name, v, m.unit)
			}
		}
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	res := result{Metrics: make(map[string]metricValue, len(want))}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		switch {
		case !ok:
			r.fail("metric %s was not produced", m.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.fail("metric %s is not finite: %v", m.name, v)
		default:
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	res.Attempted = max(r.attempted, r.failed, 1)
	res.Failed = r.failed
	res.Correct = r.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		// Every value was checked finite above, so encoding cannot fail.
		panic(err)
	}
	fmt.Fprintln(w, string(line))
	return res
}

// quantile returns the p-quantile of sorted xs, interpolating linearly
// between order statistics.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// stepQuantile returns the p-quantile of integer step counts, reading
// each count k as spread evenly over [k-1/2, k+1/2). Small step counts
// (a service packet takes 3 steps at the median) then give a quantile
// that moves smoothly with the distribution instead of jumping between
// neighbouring integers from one seed to the next.
func stepQuantile(steps []float64, p float64) float64 {
	if len(steps) == 0 {
		return math.NaN()
	}
	s := slices.Clone(steps)
	slices.Sort(s)
	n := float64(len(s))
	target := p * n
	// Walk the runs of equal values until the run that holds the target
	// rank, then place the quantile linearly inside that value's unit cell.
	below := 0
	for below < len(s) {
		v := s[below]
		run := below
		for run < len(s) && s[run] == v {
			run++
		}
		if float64(run) >= target {
			frac := (target - float64(below)) / float64(run-below)
			return v - 0.5 + frac
		}
		below = run
	}
	return s[len(s)-1] + 0.5
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// pct is 100*a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
