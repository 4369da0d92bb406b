package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchFile is BENCHMARK.json as far as the tests read it.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDefinitionMatchesBenchmarkJSON keeps the program's workload and
// metric lists in step with BENCHMARK.json.
func TestDefinitionMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
	units := make(map[string]string)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			units[m.name] = m.unit
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range b.EndToEnd {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s (%s): program has unit %q", m.Name, m.Unit, u)
		}
	}
	for _, m := range b.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s (%s): program has unit %q", m.Name, m.Unit, u)
		}
	}
}

// TestWorkloadsTiny runs every workload traced at a tiny scale: every
// check must pass, every metric must be produced and finite, the
// end-to-end ones nonzero, and every layer must appear in some span.
func TestWorkloadsTiny(t *testing.T) {
	spanLayers := make(map[string]bool)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := defaultConfig()
			c.workload, c.seconds, c.trace = w.name, 0.15, true
			c.pool, c.restartEvery, c.statsEvery = 1, 40, 10
			e := &env{cfg: &c, r: newReport(), tr: newTracer()}
			if err := w.run(e); err != nil {
				t.Fatal(err)
			}
			for _, f := range e.r.failures {
				t.Error(f)
			}
			for _, list := range [][]metricDef{endToEnd, perLayer} {
				for _, m := range list {
					v, ok := e.r.metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s not produced", m.name)
					case math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("metric %s = %v", m.name, v)
					}
				}
			}
			for _, m := range endToEnd {
				if e.r.metrics[m.name] == 0 {
					t.Errorf("end-to-end metric %s is 0", m.name)
				}
			}
			for _, s := range e.tr.spans {
				spanLayers[s.Layer] = true
			}
		})
	}
	for _, l := range layerNames {
		if !spanLayers[l] {
			t.Errorf("no workload recorded a span of layer %s", l)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestStepQuantile(t *testing.T) {
	cases := []struct {
		steps []float64
		p     float64
		want  float64
	}{
		{[]float64{3, 3, 3, 3}, 0.5, 3},
		{[]float64{3, 3, 3, 3}, 1, 3.5},
		{[]float64{2, 4}, 0.5, 2.5},     // the whole lower half is the cell of 2
		{[]float64{1, 2, 2, 3}, 0.5, 2}, // halfway through the cell of 2
		{[]float64{1, 2, 2, 3}, 0.375, 1.75},
	}
	for _, c := range cases {
		if got := stepQuantile(c.steps, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stepQuantile(%v, %v) = %v, want %v", c.steps, c.p, got, c.want)
		}
	}
}
