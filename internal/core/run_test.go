package core

import (
	"testing"

	"hotpotato/internal/workload"
)

// A reused Runner must reproduce one-shot Run results exactly, seed by
// seed, in any interleaving.
func TestRunnerReuseMatchesRun(t *testing.T) {
	p, err := workload.MeshHard(6)
	if err != nil {
		t.Fatal(err)
	}
	params := ParamsPractical(p.C, p.L(), p.N(),
		PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3})
	r := NewRunner(p, params, 1, 0)
	for _, seed := range []int64{3, 1, 3, 8} {
		want := Run(p, params, RunOptions{Seed: seed, Check: true})
		got := r.Run(RunOptions{Seed: seed, Check: true})
		if got.Steps != want.Steps || got.Engine != want.Engine || got.Router != want.Router {
			t.Errorf("seed %d: reused runner differs:\n got steps=%d %+v %+v\nwant steps=%d %+v %+v",
				seed, got.Steps, got.Engine, got.Router, want.Steps, want.Engine, want.Router)
		}
	}
}
