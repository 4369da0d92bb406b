package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/core"
	"hotpotato/internal/faults"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_traces.json from the current engine")

// goldenRouters is the golden matrix's router axis. The frame router's
// parameters derive from each problem, so the factory takes it.
func goldenRouters(p *workload.Problem) map[string]func() sim.Router {
	return map[string]func() sim.Router{
		"greedy": func() sim.Router { return baselines.NewGreedy() },
		"oldest": func() sim.Router { return baselines.NewOldestFirst() },
		"frame": func() sim.Router {
			return core.NewFrame(core.ParamsPractical(p.C, p.L(), p.N(),
				core.PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3}))
		},
	}
}

var goldenSeeds = []int64{3, 42}

// traceDigest runs the case (see injectionTrace) and hashes the full
// router-visible trace (every sequential callback plus the final
// per-packet state) together with the engine metrics — the byte-exact
// identity of a run.
func traceDigest(tb testing.TB, p *workload.Problem, mk func() sim.Router, seed int64, planned bool, fm sim.FaultModel) string {
	tb.Helper()
	m, tr := injectionTrace(tb, p, mk, seed, planned, fm)
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", m)
	h.Write([]byte(tr))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCampaign is the fixture matrix's faulted row: steady periodic
// flaps plus a short full-network outage, so both the blocked-request
// path and the stall escape hatch are pinned by the digests. Campaign
// models are pure values, so binding per (problem, seed) here is cheap
// and reproducible.
var goldenCampaign = faults.Overlay(
	faults.Flap{Period: 24, Down: 3, Rate: 0.4},
	faults.LevelBand{Lo: 0, Hi: 1 << 20, From: 10, To: 14},
)

// TestGoldenTraces pins the engine's end-to-end behavior: for a small
// topology x router x seed matrix, the SHA-256 of the complete run
// trace must match the recorded fixture byte for byte. Every case also
// runs unplanned (key suffix "/unplanned"): the same router with its
// InjectStep bound hidden, which pins the engine's full pending sweep. Any change to
// arbitration order, deflection policy, RNG derivation, or commit
// sequencing shows up here before it shows up in a paper figure.
// Regenerate deliberately with:
//
//	go test ./internal/sim/ -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	path := filepath.Join("testdata", "golden_traces.json")
	want := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt fixture %s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
	}

	got := map[string]string{}
	for pname, p := range matrixProblems(t) {
		for rname, mk := range goldenRouters(p) {
			for _, seed := range goldenSeeds {
				// The faulted row covers the greedy baselines only: the
				// frame router's fixed timetable is not built to absorb
				// mid-schedule outages, so faulted frame runs may
				// legitimately exhaust the step budget.
				faultModels := map[string]sim.FaultModel{"": nil}
				if rname != "frame" {
					faultModels["/faulted"] = goldenCampaign.Model(p.G, seed)
				}
				for suffix, fm := range faultModels {
					for _, planned := range []bool{true, false} {
						key := fmt.Sprintf("%s/%s/seed=%d%s", pname, rname, seed, suffix)
						if !planned {
							key += "/unplanned"
						}
						t.Run(key, func(t *testing.T) {
							d := traceDigest(t, p, mk, seed, planned, fm)
							got[key] = d
							if *updateGolden {
								return
							}
							w, ok := want[key]
							if !ok {
								t.Fatalf("no golden digest for %s (run with -update)", key)
							}
							if d != w {
								t.Errorf("trace digest changed:\n got %s\nwant %s\nIf the change is intended, regenerate with -update.", d, w)
							}
						})
					}
				}
			}
		}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got)) // json marshals maps sorted
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
	} else if len(want) != len(got) {
		t.Errorf("fixture has %d digests, matrix has %d; regenerate with -update", len(want), len(got))
	}
}
