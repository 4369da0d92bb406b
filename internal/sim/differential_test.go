package sim_test

import (
	"fmt"
	"testing"

	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// configuredTrace is the differential harness's run: like fullTrace,
// but with the injection path selectable. With legacy set the engine is
// rewound onto the pre-release-queue full pending sweep (the legacy
// layout of injection state) before running.
func configuredTrace(tb testing.TB, p *workload.Problem, mk func() sim.Router, seed int64, legacy bool, fm sim.FaultModel) (sim.Metrics, string) {
	tb.Helper()
	router, rec := wrapRecorder(mk())
	e := sim.NewEngine(p, router, seed)
	if fm != nil {
		e.Faults = fm
	}
	if legacy {
		sim.SetLegacyInjectForTest(e, true)
		e.Reset(seed)
	}
	if _, done := e.Run(100000); !done {
		tb.Fatalf("run did not complete")
	}
	return e.M, finalTrace(e, rec)
}

// TestDifferentialInjectionTraces is the SoA-vs-legacy differential
// harness: across the golden matrix (topology x router x faults) the
// release-queue injection path and the legacy full pending
// sweep must commit byte-identical router-visible traces and metrics.
// The engine's other SoA structures (flat occupancy, path windows,
// preselected-node arrays) are shared by both runs and pinned
// separately by the golden digests; this harness isolates the one axis
// where a legacy layout still exists to diff against. Runs under -race
// in CI alongside the reset and idle-skip determinism tests.
func TestDifferentialInjectionTraces(t *testing.T) {
	for pname, p := range matrixProblems(t) {
		for rname, mk := range goldenRouters(p) {
			seed := goldenSeeds[0]
			faultModels := map[string]sim.FaultModel{"": nil}
			if rname != "frame" {
				// Frame runs are not exercised under faults (see the
				// golden matrix: the fixed timetable may legitimately
				// exhaust the budget mid-outage).
				faultModels["/faulted"] = goldenCampaign.Model(p.G, seed)
			}
			for suffix, fm := range faultModels {
				fm := fm
				key := fmt.Sprintf("%s/%s/seed=%d%s", pname, rname, seed, suffix)
				t.Run(key, func(t *testing.T) {
					refM, refTr := configuredTrace(t, p, mk, seed, false, fm)
					m, tr := configuredTrace(t, p, mk, seed, true, fm)
					if m != refM {
						t.Errorf("legacy: metrics diverge from the release queue:\n got %+v\nwant %+v", m, refM)
					}
					if tr != refTr {
						t.Errorf("legacy: trace diverges from the release queue (%d vs %d bytes)", len(tr), len(refTr))
					}
				})
			}
		}
	}
}
