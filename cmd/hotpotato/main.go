// Command hotpotato runs a single routing instance: pick a topology, a
// workload and an algorithm, and print what happened.
//
// Usage examples:
//
//	hotpotato -topo butterfly -size 6 -workload hotspot -packets 64 -algo frame -check
//	hotpotato -topo mesh -size 8 -workload meshhard -algo greedy
//	hotpotato -topo random -depth 40 -workload random -algo frame -compare
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hotpotato"
	"hotpotato/internal/bench"
	"hotpotato/internal/obs"
)

func main() {
	if err := run(); err != nil {
		// The facade's errors already carry the package name the command
		// shares; print it once.
		fmt.Fprintln(os.Stderr, "hotpotato:", strings.TrimPrefix(err.Error(), "hotpotato: "))
		os.Exit(1)
	}
}

// run does all of main's work and returns its failure, so the deferred
// profile writes still happen on a failing run.
func run() (err error) {
	var (
		topoName = flag.String("topo", "butterfly", "topology: butterfly|mesh|hypercube|linear|random")
		size     = flag.Int("size", 6, "topology size (butterfly/hypercube dimension, mesh side)")
		depth    = flag.Int("depth", 32, "depth for -topo random/linear")
		wl       = flag.String("workload", "hotspot", "workload: hotspot|random|fullthroughput|transpose|bitreversal|meshhard|singlefile")
		packets  = flag.Int("packets", 32, "packet count for hotspot/singlefile")
		spots    = flag.Int("spots", 2, "destination count for hotspot")
		density  = flag.Float64("density", 0.5, "source density for random workload")
		algo     = flag.String("algo", "frame", "algorithm: frame|greedy-hp|greedy-ftg|greedy-oldest|rand-greedy-hp|sf-fifo|sf-randdelay|sf-farthest")
		seed     = flag.Int64("seed", 1, "random seed")
		faultStr = flag.String("faults", "", "fault campaign spec, e.g. 'flap:period=50,down=5,rate=0.2+node:node=7,from=100,to=200' (see docs/FAULTS.md; SF baselines ignore it)")
		check    = flag.Bool("check", false, "attach the invariant checker (frame only)")
		profile  = flag.Bool("profile", false, "print a per-phase progress profile (frame only)")
		compare  = flag.Bool("compare", false, "also run every baseline for comparison")
		paper    = flag.Bool("paper-params", false, "print the paper's proof-grade parameters for this instance")
		saveTo   = flag.String("save", "", "save the generated problem (network + paths) to this JSON file and continue")
		loadFrom = flag.String("load", "", "load the problem from this JSON file instead of generating one")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchSuite = flag.String("bench", "", "run a benchmark suite (engine|dynamic|obs), write its BENCH json to -bench-out, fail if a gated row allocates, and exit")
		benchOut   = flag.String("bench-out", "", "file the -bench document is written to")
		benchScale = flag.Int("bench-scale", 1, "benchmark scale: 1 = quick, 2 = full")
		benchBase  = flag.String("bench-baseline", "", "fail when any row's median ns/step is, by the lower bound of its 95% bootstrap interval, >10% above the median of this committed BENCH json of the same suite and scale")

		campaignOut       = flag.String("campaign", "", "run an experiment campaign, write its result document (CAMPAIGN json) to this file and exit (see docs/CAMPAIGNS.md)")
		campaignGrid      = flag.String("campaign-grid", "smoke", "named campaign grid: smoke|full")
		campaignCkpt      = flag.String("campaign-checkpoint", "", "checkpoint file: completed cells are appended here and restored on rerun, so interrupted campaigns resume incrementally")
		campaignWorkers   = flag.Int("campaign-workers", 0, "concurrent campaign cells (0 = GOMAXPROCS)")
		campaignTrials    = flag.Int("campaign-trials", 0, "override the grid's trials-per-cell (0 = grid default)")
		campaignSeed      = flag.Int64("campaign-seed", 0, "override the grid's base seed (0 = grid default)")
		campaignStopAfter = flag.Int("campaign-stop-after", 0, "stop (exit 0) after this many newly completed cells — the deterministic interrupt half of the CI kill-and-resume check")
		campaignStream    = flag.String("campaign-stream", "", "stream one CSV row per completed cell to this file (live progress feed)")
		campaignBase      = flag.String("campaign-baseline", "", "compare the finished campaign against this committed CAMPAIGN_baseline.json and fail on quantile or drop-rate shifts beyond tolerance")

		obsOut    = flag.String("obs", "", "write the run's observability time series to this file (.json = steps+rounds+phases document, otherwise CSV; see docs/OBSERVABILITY.md)")
		obsEvery  = flag.Int("obs-every", 1, "per-step sampling interval for -obs (round/phase rows are always kept)")
		eventsOut = flag.String("obs-events", "", "write the packet lifecycle event ring to this CSV file")
		eventsCap = flag.Int("obs-events-cap", 65536, "lifecycle ring capacity for -obs-events (oldest events overwritten beyond it)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); err == nil {
				err = werr
			}
		}()
	}

	if *benchSuite != "" {
		return runBench(*benchSuite, *benchOut, *benchScale, *benchBase)
	}
	if *campaignOut != "" {
		return runCampaign(campaignConfig{
			out:        *campaignOut,
			grid:       *campaignGrid,
			checkpoint: *campaignCkpt,
			workers:    *campaignWorkers,
			trials:     *campaignTrials,
			seed:       *campaignSeed,
			stopAfter:  *campaignStopAfter,
			stream:     *campaignStream,
			baseline:   *campaignBase,
		})
	}

	rng := rand.New(rand.NewSource(*seed))
	var prob *hotpotato.Problem
	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			return err
		}
		prob, err = hotpotato.LoadProblem(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		net, err := buildTopo(*topoName, *size, *depth, rng)
		if err != nil {
			return err
		}
		if prob, err = buildWorkload(*wl, net, rng, *packets, *spots, *density, *size); err != nil {
			return err
		}
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			return err
		}
		err = hotpotato.SaveProblem(f, prob)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("saved problem to %s\n", *saveTo)
	}

	fmt.Printf("problem: %s\n", prob)
	fmt.Printf("lower bound max(C,D) = %d\n", hotpotato.LowerBound(prob))

	if *paper {
		pp := hotpotato.PaperParams(prob.C, prob.L(), prob.N())
		fmt.Printf("paper proof-grade parameters: %s (schedule bound %d steps)\n",
			pp, pp.TotalSteps(prob.L()))
		an := hotpotato.NewAnalysis(prob.C, prob.L(), prob.N())
		fmt.Printf("Theorem 4.26 algebra: success >= %.8f (floor 1-1/LN = %.8f), polylog factor %.3g (ln⁹ = %.3g)\n",
			an.SuccessProbability(), an.TheoremFloor(), an.PolylogFactor(), an.Ln9())
	}

	campaign, err := hotpotato.ParseFaults(*faultStr)
	if err != nil {
		return err
	}
	if campaign != nil {
		fmt.Printf("fault campaign: %s\n", campaign.Name())
	}

	ob := obsConfig{out: *obsOut, every: *obsEvery, eventsOut: *eventsOut, eventsCap: *eventsCap}
	if err := runOne(prob, *algo, *seed, *check, *profile, campaign, ob); err != nil {
		return err
	}
	if *compare {
		for _, k := range []string{"frame", "greedy-hp", "greedy-ftg", "greedy-oldest", "rand-greedy-hp", "sf-fifo", "sf-randdelay", "sf-farthest"} {
			if k == *algo {
				continue
			}
			if err := runOne(prob, k, *seed, false, false, campaign, obsConfig{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHeapProfile writes a heap profile, after a GC, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runBench records a benchmark suite, writes it to out, then applies
// the gates: 0 allocs/step on gated rows and the regression gate
// against baseline when given. The document is written before gating so
// a failed run still leaves its figures behind.
func runBench(suite, out string, scale int, baseline string) error {
	if out == "" {
		return fmt.Errorf("-bench needs -bench-out")
	}
	d, err := bench.Run(suite, scale)
	if err != nil {
		return err
	}
	if err := bench.Write(out, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s benchmark to %s (gomaxprocs=%d", suite, out, d.GOMAXPROCS)
	if d.CPUModel != "" {
		fmt.Printf(", cpu=%s", d.CPUModel)
	}
	fmt.Println(")")
	for _, r := range d.Rows {
		if len(r.NsPerStep) == 0 {
			continue
		}
		fmt.Printf("  %s: %.0f ns/step, %.4f allocs/step\n", r.Name, r.Median(), r.AllocsPerStep)
	}
	if err := bench.CheckStrictAllocs(d); err != nil {
		return err
	}
	if baseline == "" {
		return nil
	}
	base, err := bench.Read(baseline)
	if err != nil {
		return err
	}
	warnings, err := bench.Compare(base, d, 0.10)
	for _, w := range warnings {
		fmt.Printf("warning: %s\n", w)
	}
	if err != nil {
		return err
	}
	fmt.Printf("benchmark regression gate passed vs %s\n", baseline)
	return nil
}

// obsConfig carries the -obs* flags into runOne.
type obsConfig struct {
	out       string
	every     int
	eventsOut string
	eventsCap int
}

// attach adds the configured probes/sinks to opts, returning the
// exporters to write after the run (nil when off).
func (ob obsConfig) attach(opts *hotpotato.Options) (*hotpotato.TimeSeries, *hotpotato.Lifecycle) {
	var ts *hotpotato.TimeSeries
	var ring *hotpotato.Lifecycle
	if ob.out != "" {
		ts = &hotpotato.TimeSeries{Every: ob.every}
		opts.Probes = append(opts.Probes, ts)
	}
	if ob.eventsOut != "" {
		ring = hotpotato.NewLifecycle(ob.eventsCap)
		opts.Events = ring
	}
	return ts, ring
}

// write exports the collected series/events to the configured files.
func (ob obsConfig) write(ts *hotpotato.TimeSeries, ring *hotpotato.Lifecycle) error {
	if ts != nil {
		f, err := os.Create(ob.out)
		if err != nil {
			return err
		}
		if strings.HasSuffix(ob.out, ".json") {
			err = ts.WriteJSON(f)
		} else {
			rows := ts.Phases
			if len(rows) == 0 {
				rows = ts.Steps
			}
			err = obs.WriteCSV(f, rows)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote observability series to %s (%d step, %d round, %d phase rows)\n",
			ob.out, len(ts.Steps), len(ts.Rounds), len(ts.Phases))
	}
	if ring != nil {
		f, err := os.Create(ob.eventsOut)
		if err != nil {
			return err
		}
		err = ring.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d lifecycle events to %s (%d overwritten)\n",
			ring.Len(), ob.eventsOut, ring.Dropped())
	}
	return nil
}

func runOne(prob *hotpotato.Problem, algo string, seed int64, check, profile bool, campaign hotpotato.FaultCampaign, ob obsConfig) error {
	opts := hotpotato.Options{Seed: seed, Faults: campaign}
	ts, ring := ob.attach(&opts)
	if algo == "frame" {
		params := hotpotato.PracticalParams(prob.C, prob.L(), prob.N())
		fmt.Printf("frame parameters: %s (schedule bound %d steps)\n", params, params.TotalSteps(prob.L()))
		opts.CheckInvariants, opts.Profile = check, profile
		res := hotpotato.RouteFrame(prob, params, opts)
		fmt.Printf("%s\n", res)
		fmt.Printf("  deflections by kind [arrival-rev safe-backwd unsafe-backwd forward]: %v\n", res.Engine.Deflections)
		fmt.Printf("  excitations=%d wait-entries=%d wait-interrupts=%d late-injections=%d\n",
			res.Router.Excitations, res.Router.WaitEntries, res.Router.WaitInterrupts, res.Router.LatePhaseInjections)
		if campaign != nil {
			fmt.Printf("  faults: blocked=%d stalls=%d\n", res.Engine.FaultBlocked, res.Engine.FaultStalls)
		}
		if check {
			fmt.Printf("  invariants: %s clean=%v\n", res.Invariants.String(), res.Invariants.Clean())
		}
		if profile {
			fmt.Println("  phase profile (phase: injected/absorbed/active/waiting):")
			for _, ph := range res.Phases {
				fmt.Printf("    %4d: +%-4d -%-4d =%-4d w%-4d\n", ph.Phase, ph.Injected, ph.Absorbed, ph.Active, ph.Waiting)
			}
		}
		return ob.write(ts, ring)
	}
	res, err := hotpotato.RouteBaseline(prob, hotpotato.BaselineKind(algo), opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s", res)
	if res.HP != nil {
		fmt.Printf("  deflections=%d (unsafe %d)", res.HP.TotalDeflections(), res.HP.UnsafeDeflections())
		if campaign != nil {
			fmt.Printf("  fault-blocked=%d stalls=%d", res.HP.FaultBlocked, res.HP.FaultStalls)
		}
	}
	if res.SF != nil {
		fmt.Printf("  max-queue=%d queue-delay=%d", res.SF.MaxQueueLen, res.SF.QueueDelay)
	}
	fmt.Println()
	return ob.write(ts, ring)
}

func buildTopo(name string, size, depth int, rng *rand.Rand) (*hotpotato.Network, error) {
	switch name {
	case "butterfly":
		return hotpotato.Butterfly(size)
	case "mesh":
		return hotpotato.Mesh(size, size, hotpotato.CornerNW)
	case "hypercube":
		return hotpotato.Hypercube(size)
	case "linear":
		return hotpotato.Linear(depth + 1)
	case "random":
		return hotpotato.RandomLeveled(rng, depth, 3, 6, 0.4)
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

func buildWorkload(name string, net *hotpotato.Network, rng *rand.Rand, packets, spots int, density float64, size int) (*hotpotato.Problem, error) {
	switch name {
	case "hotspot":
		return hotpotato.HotSpotWorkload(net, rng, packets, spots)
	case "random":
		return hotpotato.RandomWorkload(net, rng, density)
	case "fullthroughput":
		return hotpotato.FullThroughputWorkload(net, rng)
	case "transpose":
		return hotpotato.TransposeWorkload(net, size)
	case "bitreversal":
		return hotpotato.BitReversalWorkload(net, size)
	case "meshhard":
		return hotpotato.MeshHardWorkload(size)
	case "singlefile":
		return singleFile(net, packets)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func singleFile(net *hotpotato.Network, k int) (*hotpotato.Problem, error) {
	// The workload package's SingleFile needs a linear array; reuse it
	// through the facade by constructing explicit requests.
	if net.MaxLevelWidth() != 1 {
		return nil, fmt.Errorf("singlefile needs -topo linear")
	}
	if k > net.Depth() {
		k = net.Depth()
	}
	var reqs []hotpotato.Request
	dst := net.Level(net.Depth())[0]
	for i := 0; i < k; i++ {
		reqs = append(reqs, hotpotato.Request{Src: net.Level(i)[0], Dst: dst})
	}
	return hotpotato.CustomWorkload("singlefile", net, rand.New(rand.NewSource(0)), reqs)
}
