package trace

import (
	"math/rand"
	"strings"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

func testProblem(t *testing.T) *workload.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := topo.Random(rng, 15, 2, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Random(g, rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRenderFrames(t *testing.T) {
	sched := core.Schedule{P: core.Params{NumSets: 2, M: 4, W: 8, Q: 0.1}}
	L := 12
	// Phase 8: frontier 0 at level 8 (frame 5..8), frontier 1 at level
	// 4 (frame 1..4).
	out := RenderFrames(sched, L, 8, 0)
	if !strings.Contains(out, "frame 0") || !strings.Contains(out, "frame 1") {
		t.Fatalf("missing frames:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var f0 string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "frame 0") {
			f0 = ln[9:]
		}
	}
	if len(f0) != L+1 {
		t.Fatalf("frame row length %d, want %d: %q", len(f0), L+1, f0)
	}
	// Round 0 target = frontier, so level 8 renders 'T', 5..7 '='.
	if f0[8] != 'T' {
		t.Errorf("frontier cell = %c, want T (target at frontier in round 0)", f0[8])
	}
	if f0[5] != '=' || f0[7] != '=' {
		t.Errorf("frame body wrong: %q", f0)
	}
	if f0[0] != '.' || f0[12] != '.' {
		t.Errorf("outside-frame cells wrong: %q", f0)
	}
	// Round 2 target shifts back one level.
	out2 := RenderFrames(sched, L, 8, 2)
	for _, ln := range strings.Split(out2, "\n") {
		if strings.HasPrefix(ln, "frame 0") {
			row := ln[9:]
			if row[7] != 'T' || row[8] != 'F' {
				t.Errorf("round 2 row wrong: %q", row)
			}
		}
	}
}

func TestRenderFramesSkipsOffscreen(t *testing.T) {
	sched := core.Schedule{P: core.Params{NumSets: 3, M: 4, W: 8, Q: 0.1}}
	// Phase 0: frame 0 partially entering at level 0; frames 1,2 fully
	// below level 0.
	out := RenderFrames(sched, 10, 0, 0)
	if strings.Contains(out, "frame 1") || strings.Contains(out, "frame 2") {
		t.Errorf("offscreen frames rendered:\n%s", out)
	}
}

func TestPipelineMovie(t *testing.T) {
	sched := core.Schedule{P: core.Params{NumSets: 2, M: 4, W: 8, Q: 0.1}}
	out := PipelineMovie(sched, 10, []int{4, 5, 6})
	if strings.Count(out, "phase") != 3 {
		t.Errorf("movie frames = %d, want 3", strings.Count(out, "phase"))
	}
}
