package faults

import (
	"fmt"
	"strconv"
	"strings"

	"hotpotato/internal/graph"
)

// Parse builds a campaign from a compact CLI spec: one or more clauses
// joined with "+", each "kind:key=val,key=val". The clauses overlay
// (an edge is down when any clause says so). Kinds and keys:
//
//	linkdown:edge=E,from=T0,to=T1      one edge down during [T0,T1)
//	flap:period=P,down=D[,rate=R]      periodic flaps (R of edges, default 1)
//	ge:down=F,burst=B                  Gilbert–Elliott flaky links
//	node:node=V,from=T0,to=T1          node outage (all incident edges)
//	band:lo=L0,hi=L1,from=T0,to=T1[,rate=R]  correlated level-band outage
//	hash:rate=R[,window=W]             memoryless per-edge windows (W default 8)
//
// Example: "flap:period=50,down=5,rate=0.2+node:node=7,from=100,to=200".
// An empty spec returns (nil, nil): no campaign.
//
// Values a campaign would silently clamp or turn into a no-op are
// errors naming the clause: flap needs period >= 2 and 1 <= down <
// period; ge needs 0 < down < 1 and burst >= 1; hash needs window >= 1;
// every rate lies in (0,1]; edge, node and lo are >= 0; and windows
// [from,to) and bands [lo,hi) are non-empty and start at >= 0. IDs
// and levels past the network's are still accepted: a campaign binds to
// any topology and never fires there.
func Parse(spec string) (Campaign, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var members []Campaign
	for _, clause := range strings.Split(spec, "+") {
		c, err := parseClause(strings.TrimSpace(clause))
		if err != nil {
			return nil, err
		}
		members = append(members, c)
	}
	return Overlay(members...), nil
}

// parseClause parses one "kind:key=val,..." clause.
func parseClause(clause string) (Campaign, error) {
	kind, rest, _ := strings.Cut(clause, ":")
	kind = strings.TrimSpace(kind)
	kv, err := parseKV(rest)
	if err != nil {
		return nil, fmt.Errorf("faults: clause %q: %v", clause, err)
	}
	var c Campaign
	switch kind {
	case "linkdown":
		ld := LinkDown{
			Edge: graph.EdgeID(kv.geti("edge", -1)),
			From: kv.geti("from", 0),
			To:   kv.geti("to", 0),
		}
		kv.check(ld.Edge >= 0, "edge %d < 0", ld.Edge)
		kv.window(ld.From, ld.To)
		c, err = ld, kv.require("edge", "to")
	case "flap":
		f := Flap{
			Period: kv.geti("period", 0),
			Down:   kv.geti("down", 1),
			Rate:   kv.getf("rate", 1),
		}
		kv.check(f.Period >= 2, "period %d < 2", f.Period)
		kv.check(f.Down >= 1 && f.Down < f.Period, "down %d outside [1, period)", f.Down)
		kv.rate(f.Rate)
		c, err = f, kv.require("period")
	case "ge":
		ge := GilbertElliott{
			DownFrac:  kv.getf("down", 0),
			MeanBurst: kv.geti("burst", 4),
		}
		kv.check(ge.DownFrac > 0 && ge.DownFrac < 1, "down %g outside (0,1)", ge.DownFrac)
		kv.check(ge.MeanBurst >= 1, "burst %d < 1", ge.MeanBurst)
		c, err = ge, kv.require("down")
	case "node":
		n := NodeOutage{
			Node: graph.NodeID(kv.geti("node", -1)),
			From: kv.geti("from", 0),
			To:   kv.geti("to", 0),
		}
		kv.check(n.Node >= 0, "node %d < 0", n.Node)
		kv.window(n.From, n.To)
		c, err = n, kv.require("node", "to")
	case "band":
		b := LevelBand{
			Lo:   kv.geti("lo", 0),
			Hi:   kv.geti("hi", 0),
			From: kv.geti("from", 0),
			To:   kv.geti("to", 0),
			Rate: kv.getf("rate", 1),
		}
		kv.check(b.Lo >= 0 && b.Hi > b.Lo, "levels [%d,%d) empty or negative", b.Lo, b.Hi)
		kv.window(b.From, b.To)
		kv.rate(b.Rate)
		c, err = b, kv.require("hi", "to")
	case "hash":
		h := Hash{
			Rate:   kv.getf("rate", 0),
			Window: kv.geti("window", 8),
		}
		kv.rate(h.Rate)
		kv.check(h.Window >= 1, "window %d < 1", h.Window)
		c, err = h, kv.require("rate")
	default:
		return nil, fmt.Errorf("faults: unknown campaign kind %q (want linkdown|flap|ge|node|band|hash)", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("faults: clause %q: %v", clause, err)
	}
	if err := kv.unused(); err != nil {
		return nil, fmt.Errorf("faults: clause %q: %v", clause, err)
	}
	return c, nil
}

// kvSet is a parsed key=value list tracking which keys were consumed,
// so typos surface as errors instead of silently defaulting. err holds
// the first value error: a malformed number or, after the getters, a
// value out of its campaign's range.
type kvSet struct {
	vals map[string]string
	used map[string]bool
	err  error
}

func parseKV(s string) (*kvSet, error) {
	kv := &kvSet{vals: map[string]string{}, used: map[string]bool{}}
	s = strings.TrimSpace(s)
	if s == "" {
		return kv, nil
	}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("malformed pair %q (want key=value)", pair)
		}
		kv.vals[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return kv, nil
}

func (kv *kvSet) geti(key string, def int) int {
	v, ok := kv.vals[key]
	if !ok {
		return def
	}
	kv.used[key] = true
	n, err := strconv.Atoi(v)
	if err != nil && kv.err == nil {
		kv.err = fmt.Errorf("key %s: %v", key, err)
	}
	return n
}

func (kv *kvSet) getf(key string, def float64) float64 {
	v, ok := kv.vals[key]
	if !ok {
		return def
	}
	kv.used[key] = true
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && kv.err == nil {
		kv.err = fmt.Errorf("key %s: %v", key, err)
	}
	return f
}

// check records a range error unless ok; a value that failed to parse
// already holds the error.
func (kv *kvSet) check(ok bool, format string, args ...any) {
	if !ok && kv.err == nil {
		kv.err = fmt.Errorf(format, args...)
	}
}

// rate checks a fraction of edges: in (0,1], so neither NaN nor ±Inf.
func (kv *kvSet) rate(r float64) {
	kv.check(r > 0 && r <= 1, "rate %g outside (0,1]", r)
}

// window checks an outage window [from, to): it starts at a step >= 0
// and is not empty.
func (kv *kvSet) window(from, to int) {
	kv.check(from >= 0 && to > from, "window [%d,%d) empty or negative", from, to)
}

// require reports the first missing mandatory key, or else the first
// value error the getters and checks recorded.
func (kv *kvSet) require(keys ...string) error {
	for _, k := range keys {
		if _, ok := kv.vals[k]; !ok {
			return fmt.Errorf("missing required key %q", k)
		}
	}
	return kv.err
}

// unused reports keys that no getter consumed (typos).
func (kv *kvSet) unused() error {
	for k := range kv.vals {
		if !kv.used[k] {
			return fmt.Errorf("unknown key %q", k)
		}
	}
	return nil
}
