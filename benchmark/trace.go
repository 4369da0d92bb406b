package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// layer names the module a span's time is charged to. The names are the
// repository's package names; gen is the benchmark's own load generator.
type layer uint8

const (
	layerGen layer = iota
	layerTopo
	layerWorkload
	layerCore
	layerSim
	layerDynamic
	layerService
	layerHTTP
	layerPersist
	numLayers
)

var layerNames = [numLayers]string{
	"gen", "topo", "workload", "core", "sim", "dynamic", "service", "http", "persist",
}

func (l layer) String() string { return layerNames[l] }

// maxStoredSpans bounds the spans of each layer kept for the -spans file
// (about 64 bytes each), so that a chatty layer cannot crowd out the
// others. Per-layer totals keep counting past it.
const maxStoredSpans = 1 << 14

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer started; Parent indexes the enclosing span in the
// stored list (-1 at top level); Req identifies the request the span
// served: the run seed of a batch routing run, or the tick or batch
// index of a service workload.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// frame is an open span on the tracer's stack.
type frame struct {
	layer layer
	start time.Duration
	child time.Duration // time covered by child spans
	idx   int32         // index in spans, -1 when not stored
}

// tracer records spans around the benchmark's calls into each layer. All
// calls come from the one load-generating goroutine, so it needs no
// locking. A nil *tracer is a valid, disabled tracer: the untraced run
// pays one nil check per call site.
type tracer struct {
	t0      time.Time
	on      bool
	spans   []span
	stored  [numLayers]int
	dropped int64
	stack   []frame
	self    [numLayers]time.Duration
	calls   [numLayers]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stack: make([]frame, 0, 8)}
}

// record switches accumulation on or off. Warm-up and set-up run with it
// off, so the totals cover the measured phase only. Switching with a span
// open would unbalance the stack, which only a bug in the benchmark can do.
func (t *tracer) record(on bool) {
	if t == nil {
		return
	}
	if len(t.stack) != 0 {
		panic("tracer: record toggled inside an open span")
	}
	t.on = on
}

// reset clears the per-layer totals, keeping stored spans.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.self = [numLayers]time.Duration{}
	t.calls = [numLayers]int64{}
}

// begin opens a span charged to layer l.
func (t *tracer) begin(l layer, name string, req int64) {
	if t == nil || !t.on {
		return
	}
	now := time.Since(t.t0)
	idx := int32(-1)
	if t.keep(l) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{
			Layer: l.String(), Name: name, Start: int64(now), Parent: parent, Req: req,
		})
	}
	t.stack = append(t.stack, frame{layer: l, start: now, idx: idx})
}

// keep reports whether a new span of layer l is to be stored, counting
// it as dropped when the layer is full.
func (t *tracer) keep(l layer) bool {
	if t.stored[l] >= maxStoredSpans {
		t.dropped++
		return false
	}
	t.stored[l]++
	return true
}

// store keeps a finished top-level span without adding it to the
// per-layer totals: set-up time is reported through setup_s and the set-up
// shares, and the busy shares cover the measured windows only.
func (t *tracer) store(l layer, name string, start time.Time, d time.Duration) {
	if t == nil || !t.keep(l) {
		return
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Layer: l.String(), Name: name, Start: s, End: s + int64(d), Parent: -1, Req: -1})
}

// end closes the innermost open span. Its self time is its duration less
// the time its children covered.
func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	now := time.Since(t.t0)
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	t.self[f.layer] += d - f.child
	t.calls[f.layer]++
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.idx >= 0 {
		t.spans[f.idx].End = int64(now)
	}
}

// printLayers writes the per-layer self time and span counts.
// It prints nothing when the totals are empty.
func (t *tracer) printLayers(w io.Writer, title string) {
	if t.calls == [numLayers]int64{} {
		return
	}
	fmt.Fprintf(w, "trace %s\n", title)
	fmt.Fprintf(w, "trace %-9s %12s %10s\n", "layer", "self_ms", "spans")
	for l := layer(0); l < numLayers; l++ {
		if t.calls[l] == 0 {
			continue
		}
		fmt.Fprintf(w, "trace %-9s %12.3f %10d\n", l, float64(t.self[l])/1e6, t.calls[l])
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "trace %d spans so far counted but not stored (limit %d per layer)\n", t.dropped, maxStoredSpans)
	}
}

// writeSpans writes the stored spans as one JSON document.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int64  `json:"dropped"`
	}{t.spans, t.dropped})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// span times f as a span of layer l.
func (t *tracer) span(l layer, name string, req int64, f func() error) error {
	t.begin(l, name, req)
	err := f()
	t.end()
	return err
}
