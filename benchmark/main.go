// Command benchmark measures the hot-potato routing system from the
// outside: three workloads drive the public entry points of each layer
// (topo, workload, core, sim, dynamic, service, http, persist) and report
// end-to-end metrics, or, when traced, per-layer metrics. See README.md.
//
// One workload, as the regression gate runs it:
//
//	bash benchmark/run.sh --workload frame-batch --seed 3 --seconds 30 --trace 0
//
// The last line of standard output is the result as one JSON object.
// Without -workload every workload runs once, each in a fresh process;
// -repeat N runs them N times in alternating order and prints each
// end-to-end metric's median, quartiles and spread against its bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runConfig is one workload run. The scale fields default to the
// benchmark's sizes; tests shrink them.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string

	// pool is the number of routing problems a batch workload cycles
	// through. It is odd, so that the median run falls in the middle of
	// one problem's runs rather than on the edge between two problems'.
	pool int
	// restartEvery and statsEvery are svc-replay's ticks between service
	// restarts and between stats reads.
	restartEvery int
	statsEvery   int
}

func defaultConfig() runConfig {
	return runConfig{seed: 1, seconds: 30, pool: 5, restartEvery: 10000, statsEvery: 100}
}

// warmup is the untimed lead-in before the measured phase: 5% of it.
func (c *runConfig) warmup() time.Duration { return c.measure() / 20 }

func (c *runConfig) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func main() {
	c := defaultConfig()
	var traceFlag, repeat int
	var bench string
	flag.StringVar(&c.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	flag.Int64Var(&c.seed, "seed", c.seed, "seed the workload's inputs are generated from")
	flag.Float64Var(&c.seconds, "seconds", c.seconds, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.StringVar(&c.spans, "spans", "", "with -trace 1, write the recorded spans to this JSON file")
	flag.IntVar(&repeat, "repeat", 0, "run every workload this many times in fresh processes and summarize")
	flag.StringVar(&bench, "bench", "BENCHMARK.json", "benchmark definition holding the bounds -repeat reports against")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", traceFlag)
	}
	c.trace = traceFlag == 1
	if c.seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	if c.workload != "" {
		os.Exit(runOne(&c))
	}
	os.Exit(repeatAll(&c, repeat, bench))
}

// runOne runs a single workload in this process and prints its result.
// It returns the exit code: 0 when every operation and check passed.
func runOne(c *runConfig) int {
	w, ok := workloadByName(c.workload)
	if !ok {
		fatalf("unknown workload %q", c.workload)
	}
	e := &env{cfg: c, r: newReport()}
	if c.trace {
		e.tr = newTracer()
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v gomaxprocs %d\n",
		w.name, c.seed, c.seconds, c.trace, runtime.GOMAXPROCS(0))
	if err := w.run(e); err != nil {
		e.r.fail("%s: %v", w.name, err)
	}
	if e.tr != nil {
		e.tr.printLayers(os.Stdout, "measured phase")
		if c.spans != "" {
			if err := e.tr.writeSpans(c.spans); err != nil {
				e.r.fail("%v", err)
			}
		}
	}
	if res := e.r.emit(os.Stdout, c.trace); !res.Correct {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
