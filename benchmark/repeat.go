package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// boundDef is an end-to-end metric as BENCHMARK.json declares it.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// childRun is one workload run in a child process.
type childRun struct {
	res     result
	metrics map[string]float64 // every "metric" line it printed
	out     []byte
	err     error
}

// runChild runs one workload in a fresh process of this binary and waits
// for it.
func runChild(c *runConfig, workload string, seed int64, trace bool) childRun {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	cr := childRun{out: out, err: err, metrics: make(map[string]float64)}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "metric" {
			if v, perr := strconv.ParseFloat(f[2], 64); perr == nil {
				cr.metrics[f[1]] = v
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if jerr := json.Unmarshal([]byte(last), &cr.res); jerr != nil && cr.err == nil {
		cr.err = fmt.Errorf("%s: no result line: %w", workload, jerr)
	}
	return cr
}

// repeatAll runs every workload n times (once when n is 0, echoing each
// run's output), each run in a fresh process, reversing the workload
// order on every other round. With n > 0 it also runs each workload once
// traced and prints, per workload and end-to-end metric, the median,
// quartiles and spread of the untraced runs against the metric's bound,
// and the traced run's difference from the median: the tracing overhead.
// It returns the exit code: 1 when any run failed.
func repeatAll(c *runConfig, n int, benchPath string) int {
	echo := n == 0
	rounds := max(n, 1)
	var bounds []boundDef
	if !echo {
		data, err := os.ReadFile(benchPath)
		if err != nil {
			fatalf("read bounds: %v", err)
		}
		var def struct {
			EndToEnd []boundDef `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &def); err != nil {
			fatalf("read bounds: %s: %v", benchPath, err)
		}
		bounds = def.EndToEnd
	}
	failed := false
	samples := make(map[string]map[string][]float64)
	for round := 0; round < rounds; round++ {
		order := slices.Clone(workloads)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			cr := runChild(c, w.name, c.seed+int64(round), false)
			if echo {
				os.Stdout.Write(cr.out)
			}
			if cr.err != nil || !cr.res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s round %d failed: %v (failed ops %d)\n", w.name, round, cr.err, cr.res.Failed)
				failed = true
			}
			if samples[w.name] == nil {
				samples[w.name] = make(map[string][]float64)
			}
			for name, v := range cr.res.Metrics {
				samples[w.name][name] = append(samples[w.name][name], v.Value)
			}
		}
	}
	if echo {
		return exitCode(failed)
	}

	fmt.Printf("%-15s %-18s %12s %12s %12s %8s %8s %6s %9s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "bound", "steady", "traced")
	for _, w := range workloads {
		traced := runChild(c, w.name, c.seed, true)
		if traced.err != nil || !traced.res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced run failed: %v\n", w.name, traced.err)
			failed = true
		}
		for _, b := range bounds {
			xs := samples[w.name][b.Name]
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			steady := "yes"
			if b.Name != "setup_s" && spread >= b.Bound/3 {
				steady = "NO"
			}
			overhead := "-"
			if v, ok := traced.metrics[b.Name]; ok && med != 0 {
				overhead = fmt.Sprintf("%+.1f%%", 100*(v-med)/med)
			}
			fmt.Printf("%-15s %-18s %12.6g %12.6g %12.6g %7.2f%% %7.1f%% %6s %9s\n",
				w.name, b.Name, q1, med, q3, 100*spread, 100*b.Bound, steady, overhead)
		}
	}
	return exitCode(failed)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) and statistics.median do.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	med = median(s)
	if len(s) < 2 {
		return med, med, med
	}
	// The "exclusive" method: positions i·(n+1)/4, clamped to the data.
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

func exitCode(failed bool) int {
	if failed {
		return 1
	}
	return 0
}
