package hotpotato

import (
	"hotpotato/internal/faults"
	"hotpotato/internal/sim"
)

// Fault injection. A FaultCampaign describes an outage scenario
// (which edges go down, when); binding it to a network and seed yields
// a FaultModel — a pure function of (edge, step) the engines consult
// every step. Campaigns compose with OverlayFaults and parse from
// compact CLI specs with ParseFaults; see docs/FAULTS.md.
type (
	// FaultModel marks edges down per step. It must be a pure function
	// of its arguments, so that a run reproduces from its seed: the
	// engines query it repeatedly per step and replay it for
	// availability gauges.
	FaultModel = sim.FaultModel
	// FaultCampaign is a reusable, seedable outage scenario.
	FaultCampaign = faults.Campaign
	// LinkDown takes one edge down for a step window.
	LinkDown = faults.LinkDown
	// LinkFlap takes a random subset of edges down periodically.
	LinkFlap = faults.Flap
	// FlakyLinks is a Gilbert–Elliott burst-loss scenario: every edge
	// flips between long healthy stretches and short down bursts.
	FlakyLinks = faults.GilbertElliott
	// NodeOutage takes every edge incident to one node down for a
	// window.
	NodeOutage = faults.NodeOutage
	// LevelBandOutage takes a whole band of levels down for a window —
	// the correlated-failure scenario (a rack, a stage of the network).
	LevelBandOutage = faults.LevelBand
	// RandomFaults is a memoryless per-edge-window outage process.
	RandomFaults = faults.Hash
)

// OverlayFaults composes campaigns: an edge is down when any member
// campaign says so. Members get independent seed streams.
func OverlayFaults(cs ...FaultCampaign) FaultCampaign { return faults.Overlay(cs...) }

// ParseFaults builds a campaign from a compact spec string like
// "flap:period=50,down=5,rate=0.2+node:node=7,from=100,to=200"
// (the -faults syntax of cmd/hotpotato and cmd/openload). An empty
// spec returns (nil, nil).
func ParseFaults(spec string) (FaultCampaign, error) { return faults.Parse(spec) }

// FaultAvailability reports the fraction of healthy edges at one step
// under a bound model (1.0 for nil).
func FaultAvailability(m FaultModel, g *Network, t int) float64 {
	return faults.Availability(m, g, t)
}
