package sim_test

import (
	"fmt"
	"testing"

	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// injectionTrace runs the case to completion under fault model fm (nil
// for none) and returns its metrics and full trace. With planned false
// the router runs behind a recorder that hides its InjectionPlanner
// bound, so the engine sweeps every pending packet each step instead
// of releasing them from its schedule.
func injectionTrace(tb testing.TB, p *workload.Problem, mk func() sim.Router, seed int64, planned bool, fm sim.FaultModel) (sim.Metrics, string) {
	tb.Helper()
	router, rec := wrapRecorder(mk())
	if !planned {
		rec = newRecorder(rec.inner)
		router = rec
	}
	return recordedTrace(tb, p, router, rec, seed, fm)
}

// TestDifferentialInjectionTraces: across the golden matrix (topology x
// router x faults) the release-queue injection path and the full
// pending sweep of the same router with its InjectStep bound hidden
// must commit byte-identical router-visible traces and metrics. The
// golden digests pin both paths (the "/unplanned" rows); this test
// shows where they part. Runs under -race in CI alongside the reset
// and idle-skip determinism tests.
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
				key := fmt.Sprintf("%s/%s/seed=%d%s", pname, rname, seed, suffix)
				t.Run(key, func(t *testing.T) {
					refM, refTr := injectionTrace(t, p, mk, seed, true, fm)
					m, tr := injectionTrace(t, p, mk, seed, false, fm)
					if m != refM {
						t.Errorf("full sweep: metrics diverge from the release queue:\n got %+v\nwant %+v", m, refM)
					}
					if tr != refTr {
						t.Errorf("full sweep: trace diverges from the release queue (%d vs %d bytes)", len(tr), len(refTr))
					}
				})
			}
		}
	}
}
