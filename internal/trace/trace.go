// Package trace records and renders what a routing run looks like:
// per-packet level trajectories (the input of the time-space SVG),
// per-edge traversal counts (the heat map's data), and an ASCII
// rendering of the frontier-frame pipeline that reproduces the paper's
// Figure 2. The per-level occupancy census and its CSV export live in
// internal/obs (obs.TimeSeries).
package trace

import (
	"fmt"
	"strings"

	"hotpotato/internal/core"
)

// RenderFrames draws the frontier-frame pipeline at the given phase,
// reproducing Figure 2: one row per frontier-set, columns are network
// levels 0..L; 'F' marks the frontier, '=' the rest of the frame, 'T'
// the round's target level, '.' everything else. Only in-network
// portions are drawn (partial frames appear truncated, as in the
// figure).
func RenderFrames(sched core.Schedule, L, phase, round int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "phase %d, round %d (target inner-level %d)\n", phase, round, sched.TargetInner(round))
	b.WriteString("level    ")
	for l := 0; l <= L; l++ {
		b.WriteByte("0123456789"[l%10])
	}
	b.WriteByte('\n')
	for set := 0; set < sched.P.NumSets; set++ {
		f := sched.Frontier(set, phase)
		back := sched.FrameBack(set, phase)
		tl := sched.TargetLevel(set, phase, round)
		if f < 0 || back > L {
			continue // frame entirely outside the network
		}
		fmt.Fprintf(&b, "frame %-3d", set)
		for l := 0; l <= L; l++ {
			switch {
			case l == tl && l >= back && l <= f:
				b.WriteByte('T')
			case l == f:
				b.WriteByte('F')
			case l >= back && l < f:
				b.WriteByte('=')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PipelineMovie renders the frame pipeline at the start of each of the
// given phases — the moving version of Figure 2.
func PipelineMovie(sched core.Schedule, L int, phases []int) string {
	var b strings.Builder
	for _, ph := range phases {
		b.WriteString(RenderFrames(sched, L, ph, 0))
		b.WriteByte('\n')
	}
	return b.String()
}
