package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Tolerances bound how far a current campaign may drift from the
// committed baseline before the gate fails. Zero values select the
// defaults noted per field.
type Tolerances struct {
	// Quantile is the allowed relative shift of per-cell p50/p99
	// delivery-step quantiles, two-sided — an unexplained speedup is as
	// much a distribution change as a slowdown, and either invalidates
	// the recorded science until the baseline is re-recorded. Default
	// 0.10 (10%).
	Quantile float64
	// DropRate is the allowed absolute shift of the per-cell
	// packet-drop rate (the under-faults degradation figure). Default
	// 0.05.
	DropRate float64
	// QuantileFloor switches the quantile gate from relative to
	// absolute below this baseline magnitude. A relative gate is
	// meaningless near zero: baseline 0 divides to +Inf (everything
	// fails) and 0 vs 0 divides to NaN (every comparison is vacuously
	// true, so anything passes). Below the floor the gate instead
	// requires |cur-base| <= QuantileFloor*Quantile — the same
	// proportional slack, anchored at the floor. Default 1.0 (one
	// delivery step).
	QuantileFloor float64
}

func (t Tolerances) normalize() Tolerances {
	if t.Quantile <= 0 {
		t.Quantile = 0.10
	}
	if t.DropRate <= 0 {
		t.DropRate = 0.05
	}
	if t.QuantileFloor <= 0 {
		t.QuantileFloor = 1.0
	}
	return t
}

// CompareCampaign is the distribution-level regression gate, the
// campaign analogue of bench.Compare: every cell present in
// both documents must agree on its delivery-time quantiles (relative,
// per Tolerances.Quantile) and its drop rate (absolute, per
// Tolerances.DropRate). Cells on only one side produce warnings, as
// does a spec-fingerprint mismatch (the intersection still gates). All
// violations are collected into one error so a shifted grid reports
// every broken cell, not just the first.
func CompareCampaign(baseline, current *Document, tol Tolerances) ([]string, error) {
	tol = tol.normalize()
	var warnings, violations []string
	if baseline.SpecHash != current.SpecHash {
		warnings = append(warnings,
			fmt.Sprintf("baseline spec %s != current spec %s; gating only the intersection of cells",
				baseline.SpecHash, current.SpecHash))
	}
	base := make(map[string]int, len(baseline.Cells))
	for i, c := range baseline.Cells {
		base[c.Key] = i
	}
	seen := make(map[string]bool, len(current.Cells))
	for _, cur := range current.Cells {
		seen[cur.Key] = true
		bi, ok := base[cur.Key]
		if !ok {
			warnings = append(warnings, fmt.Sprintf("cell %s only in current document; not gated", cur.Key))
			continue
		}
		b := baseline.Cells[bi]
		for _, q := range []struct {
			name      string
			base, cur float64
		}{
			{"p50", b.StepsP50, cur.StepsP50},
			{"p99", b.StepsP99, cur.StepsP99},
		} {
			switch {
			case q.base < 0 && q.cur < 0:
				// No successful trials on either side: nothing to compare
				// (the drop-rate check still gates the failure pattern).
			case q.base < 0 || q.cur < 0:
				violations = append(violations,
					fmt.Sprintf("cell %s: %s existence flipped (baseline %g, current %g)", cur.Key, q.name, q.base, q.cur))
			case math.Abs(q.base) < tol.QuantileFloor:
				// Near-zero baseline: the relative gate degenerates
				// (0 → Inf fails everything; 0 vs 0 → NaN passes
				// everything). Gate on absolute shift instead.
				if shift := math.Abs(q.cur - q.base); shift > tol.QuantileFloor*tol.Quantile {
					violations = append(violations,
						fmt.Sprintf("cell %s: %s shifted %g near zero baseline (baseline %g, current %g, absolute tolerance %g)",
							cur.Key, q.name, shift, q.base, q.cur, tol.QuantileFloor*tol.Quantile))
				}
			default:
				if shift := math.Abs(q.cur-q.base) / q.base; shift > tol.Quantile {
					violations = append(violations,
						fmt.Sprintf("cell %s: %s shifted %.1f%% (baseline %g, current %g, tolerance %.0f%%)",
							cur.Key, q.name, 100*shift, q.base, q.cur, 100*tol.Quantile))
				}
			}
		}
		if shift := math.Abs(cur.DropRate - b.DropRate); shift > tol.DropRate {
			violations = append(violations,
				fmt.Sprintf("cell %s: drop rate shifted %.3f (baseline %.3f, current %.3f, tolerance %.3f)",
					cur.Key, shift, b.DropRate, cur.DropRate, tol.DropRate))
		}
	}
	for _, b := range baseline.Cells {
		if !seen[b.Key] {
			warnings = append(warnings, fmt.Sprintf("cell %s only in baseline document; not gated", b.Key))
		}
	}
	if len(violations) > 0 {
		return warnings, fmt.Errorf("campaign: distribution gate failed (%d cells):\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	return warnings, nil
}

// WriteDocument serializes a completed campaign document (indented,
// trailing newline — the committed-artifact convention).
func WriteDocument(w io.Writer, d *Document) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadDocument deserializes and validates a campaign document: schema
// version, per-cell invariants (via the persist validators), unique
// keys, and the spec-fingerprint integrity check.
func ReadDocument(r io.Reader) (*Document, error) {
	var d Document
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("campaign: decode document: %w", err)
	}
	if d.Version != DocumentVersion {
		return nil, fmt.Errorf("campaign: unsupported document version %d (want %d)", d.Version, DocumentVersion)
	}
	if got := d.Spec.Fingerprint(); got != d.SpecHash {
		return nil, fmt.Errorf("campaign: document spec hash %s does not match its spec (%s); edited by hand?", d.SpecHash, got)
	}
	seen := make(map[string]bool, len(d.Cells))
	for i := range d.Cells {
		c := &d.Cells[i]
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: document cell %d: %w", i, err)
		}
		if seen[c.Key] {
			return nil, fmt.Errorf("campaign: document has duplicate cell %q", c.Key)
		}
		seen[c.Key] = true
	}
	return &d, nil
}

// LoadDocument reads a document from a file.
func LoadDocument(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadDocument(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
