package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// checkRows asserts the invariants every stepped row of any suite
// holds: positive samples over at least one window, a finite
// allocation count, and the pass split inside the pass.
func checkRows(t *testing.T, d *Doc) {
	t.Helper()
	if d.GoVersion == "" || d.GOOS == "" || d.GOARCH == "" || d.NumCPU <= 0 || d.GOMAXPROCS <= 0 {
		t.Errorf("missing host stamp: %+v", d)
	}
	for _, r := range d.Rows {
		if len(r.NsPerStep) == 0 {
			continue
		}
		if n := len(r.NsPerStep); n < benchReps || n > benchMaxReps || r.Steps < benchWindow {
			t.Errorf("%s: %d samples over %d steps, want %d to %d over >= %d",
				r.Name, n, r.Steps, benchReps, benchMaxReps, benchWindow)
		}
		if n := len(r.NsPerStep); n < benchMaxReps && wideCI(r) {
			t.Errorf("%s: stopped at %d reps with a median interval wider than %.0f%%", r.Name, n, 100*benchCIWidth)
		}
		for _, ns := range r.NsPerStep {
			if ns <= 0 {
				t.Errorf("%s: non-positive sample %g", r.Name, ns)
			}
		}
		if len(r.KernelNs) != len(r.NsPerStep) {
			t.Errorf("%s: %d kernel times for %d reps", r.Name, len(r.KernelNs), len(r.NsPerStep))
		}
		for _, k := range r.KernelNs {
			if k <= 0 {
				t.Errorf("%s: non-positive kernel time %g", r.Name, k)
			}
		}
		if r.AllocsPerStep < 0 || r.AllocsPerStep > 1e6 {
			t.Errorf("%s: allocs/step %g", r.Name, r.AllocsPerStep)
		}
		if ramp, steps := r.Metrics["ramp_steps"], r.Metrics["pass_steps"]; steps <= 0 || ramp < 0 || ramp > steps {
			t.Errorf("%s: ramp %g of pass %g steps", r.Name, ramp, steps)
		}
	}
}

func TestEngineBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("engine benchmark is slow; skipped under -short")
	}
	d, err := Run("engine", 1)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, d)
	// Five gated topology rows, the gated frame row and the ensemble
	// row.
	if len(d.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(d.Rows))
	}
	gated := 0
	for _, r := range d.Rows {
		if strings.HasSuffix(r.Name, "/ensemble") {
			if r.Metrics["reuse_speedup"] <= 0 || r.Metrics["fresh_trials_per_sec"] <= 0 || r.Metrics["reused_trials_per_sec"] <= 0 {
				t.Errorf("bad ensemble row: %+v", r)
			}
			continue
		}
		m := r.Metrics
		if m["max_in_flight"] <= 0 || m["max_in_flight"] > m["packets"] {
			t.Errorf("%s: max in flight %g outside (0, %g]", r.Name, m["max_in_flight"], m["packets"])
		}
		if r.Gated {
			gated++
		}
	}
	if gated != 6 {
		t.Errorf("%d gated rows, want 6", gated)
	}
	// The zero-alloc claim: a warmed, Reset-rewound engine must not
	// allocate on the stepping path.
	if err := CheckStrictAllocs(d); err != nil {
		t.Error(err)
	}
}

// TestSuitesQuick runs the dynamic and observability suites and holds
// their gated rows to 0 allocs/step.
func TestSuitesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark suites are slow; skipped under -short")
	}
	for suite, want := range map[string][]string{
		"dynamic": {"butterfly(5)-service"},
		"obs": {
			"butterfly(7)-dense/disabled", "butterfly(7)-dense/probe", "butterfly(7)-dense/probe+lifecycle",
			"mesh(12)-hard/disabled", "mesh(12)-hard/probe", "mesh(12)-hard/probe+lifecycle",
		},
	} {
		d, err := Run(suite, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, d)
		var names []string
		for _, r := range d.Rows {
			names = append(names, r.Name)
			if disabled := !strings.Contains(r.Name, "/probe"); r.Gated != disabled {
				t.Errorf("%s: gated %v", r.Name, r.Gated)
			}
			if _, ok := r.Metrics["overhead_pct"]; suite == "obs" && ok == r.Gated {
				t.Errorf("%s: overhead_pct present %v on a gated=%v row", r.Name, ok, r.Gated)
			}
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s rows %v, want %v", suite, names, want)
		}
		if err := CheckStrictAllocs(d); err != nil {
			t.Error(err)
		}
	}
	if _, err := Run("nope", 1); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestWriteEngineBenchRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("engine benchmark is slow; skipped under -short")
	}
	// The dynamic suite at scale 1 is the quickest recorded document:
	// one row.
	d, err := Run("dynamic", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := Write(path, d); err != nil {
		t.Fatal(err)
	}
	back, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Errorf("round trip changed the document:\n got %+v\nwant %+v", back, d)
	}
}

// suiteDocs returns one baseline document per suite, each holding a
// row that suite records, with reps spread ±4% about the median.
func suiteDocs() []*Doc {
	row := func(name string, ns float64) Row {
		return Row{Name: name, NsPerStep: []float64{ns * 1.04, ns, ns * 0.97, ns * 1.02, ns * 0.96}}
	}
	return []*Doc{
		{Suite: "engine", Scale: 2, Rows: []Row{
			row("butterfly(8)-dense", 1000),
			row("butterfly(12)-sparse", 500),
			{Name: "mesh(8)-hard/ensemble", Metrics: map[string]float64{"workers": 4}},
		}},
		{Suite: "dynamic", Scale: 2, Rows: []Row{row("butterfly(5)-service", 1500)}},
		{Suite: "obs", Scale: 2, Rows: []Row{row("butterfly(8)-dense/probe", 2000)}},
	}
}

// scaled copies d with every ns/step sample multiplied by f; kernel
// times are kept.
func scaled(d *Doc, f float64) *Doc {
	c := *d
	c.Rows = nil
	for _, r := range d.Rows {
		r.NsPerStep = scaledSamples(r.NsPerStep, f)
		c.Rows = append(c.Rows, r)
	}
	return &c
}

// scaledSamples returns a copy of xs with every value multiplied by f.
func scaledSamples(xs []float64, f float64) []float64 {
	out := append([]float64(nil), xs...)
	for i := range out {
		out[i] *= f
	}
	return out
}

// TestCompareCommitted holds the committed engine recording to the
// gate: it passes against itself and fails 30% slower.
func TestCompareCommitted(t *testing.T) {
	base, err := Read(filepath.Join("..", "..", "BENCH_engine.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(base, base, 0.10); err != nil {
		t.Errorf("the recording tripped the gate against itself: %v", err)
	}
	if _, err := Compare(base, scaled(base, 1.3), 0.10); err == nil {
		t.Error("the recording 30% slower did not trip the 10% gate")
	}
}

func TestCompare(t *testing.T) {
	for _, base := range suiteDocs() {
		t.Run(base.Suite, func(t *testing.T) {
			if w, err := Compare(base, scaled(base, 1.08), 0.10); err != nil || len(w) != 0 {
				t.Errorf("8%% slower tripped the gate: %v (warnings %v)", err, w)
			}
			if _, err := Compare(base, scaled(base, 1.15), 0.10); err == nil {
				t.Error("15% regression did not trip the 10% gate")
			}
			// The median counts: a slow outlier rep is not a regression.
			cur := scaled(base, 1)
			for i := range cur.Rows {
				if len(cur.Rows[i].NsPerStep) > 0 {
					cur.Rows[i].NsPerStep[0] *= 3
				}
			}
			// Rows without a baseline counterpart are ignored.
			cur.Rows = append(cur.Rows, Row{Name: "unmatched", NsPerStep: []float64{1e9}})
			if _, err := Compare(base, cur, 0.10); err != nil {
				t.Errorf("slow outlier rep or unmatched row tripped the gate: %v", err)
			}
			// Different scales measure different networks: nothing is
			// compared, with one warning.
			cur = scaled(base, 2)
			cur.Scale = 1
			if w, err := Compare(base, cur, 0.10); err != nil || len(w) != 1 {
				t.Errorf("cross-scale comparison: err %v, warnings %v; want none and one", err, w)
			}
		})
	}
	// Host-scaled reps: a recording made while the host ran 30% slower
	// throughout, as its kernel times show, is not a regression; 15%
	// slower at the baseline's host speed is.
	for _, base := range suiteDocs() {
		for i := range base.Rows {
			for range base.Rows[i].NsPerStep {
				base.Rows[i].KernelNs = append(base.Rows[i].KernelNs, kernelNominalNs)
			}
		}
		slowHost := scaled(base, 1.3)
		for i := range slowHost.Rows {
			slowHost.Rows[i].KernelNs = scaledSamples(base.Rows[i].KernelNs, 1.3)
		}
		if _, err := Compare(base, slowHost, 0.10); err != nil {
			t.Errorf("%s: a uniformly slower host tripped the scaled gate: %v", base.Suite, err)
		}
		if _, err := Compare(base, scaled(base, 1.15), 0.10); err == nil {
			t.Errorf("%s: 15%% regression at an unchanged host speed did not trip the scaled gate", base.Suite)
		}
		// A side without kernel times compares raw: the slow host's
		// reps then read as 30% slower.
		raw := scaled(slowHost, 1)
		for i := range raw.Rows {
			raw.Rows[i].KernelNs = nil
		}
		if _, err := Compare(base, raw, 0.10); err == nil {
			t.Errorf("%s: raw 30%% regression against a kernel-timed baseline did not trip the gate", base.Suite)
		}
	}
	// Documents of different suites compare nothing, with one warning.
	docs := suiteDocs()
	if w, err := Compare(docs[0], scaled(docs[1], 2), 0.10); err != nil || len(w) != 1 {
		t.Errorf("cross-suite comparison: err %v, warnings %v; want none and one", err, w)
	}
}

// allocSink keeps allocatingGreedy's allocations on the heap.
var allocSink []byte

// allocatingGreedy is the mutation the strict-alloc gate must catch:
// greedy routing that allocates once per request.
type allocatingGreedy struct{ *baselines.Greedy }

func (a allocatingGreedy) Request(t int, p *sim.Packet) sim.Request {
	allocSink = make([]byte, 16)
	return a.Greedy.Request(t, p)
}

func TestCheckStrictAllocs(t *testing.T) {
	d := &Doc{Rows: []Row{
		{Name: "a", Gated: true},
		{Name: "b/probe", AllocsPerStep: 0.25},
	}}
	if err := CheckStrictAllocs(d); err != nil {
		t.Errorf("ungated allocs tripped the gate: %v", err)
	}
	d.Rows[0].AllocsPerStep = 0.01
	if err := CheckStrictAllocs(d); err == nil {
		t.Error("gated allocs did not trip the gate")
	}

	if testing.Short() {
		t.Skip("measured mutation check skipped under -short")
	}
	dense := func() (*workload.Problem, error) {
		g, err := topo.Butterfly(6)
		if err != nil {
			return nil, err
		}
		return workload.FullThroughput(g, rngFor("bench-engine-dense", 6))
	}
	for _, c := range []struct {
		route   func() sim.Router
		mutated bool
	}{
		{func() sim.Router { return baselines.NewGreedy() }, false},
		{func() sim.Router { return allocatingGreedy{baselines.NewGreedy()} }, true},
	} {
		d := &Doc{}
		if err := runEngineCase(d, engineCase{name: "butterfly(6)-dense", build: dense, route: c.route}); err != nil {
			t.Fatal(err)
		}
		if err := CheckStrictAllocs(d); (err != nil) != c.mutated {
			t.Errorf("mutated=%v: gate returned %v (allocs/step %g)", c.mutated, err, d.Rows[0].AllocsPerStep)
		}
	}
}
