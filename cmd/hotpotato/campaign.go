package main

import (
	"errors"
	"fmt"
	"os"

	"hotpotato/internal/campaign"
)

// campaignConfig carries the -campaign* flags.
type campaignConfig struct {
	out        string // result document path
	grid       string // named grid: smoke|full
	checkpoint string // checkpoint file ("" = no checkpointing)
	workers    int
	trials     int    // 0 = grid default
	seed       int64  // 0 = grid default
	stopAfter  int    // stop after N newly completed cells (resume later)
	stream     string // per-cell CSV stream path
	baseline   string // CompareCampaign gate target
}

// runCampaign executes the -campaign mode end to end: resolve the
// grid, run (or resume) it, write the document, and gate against the
// committed baseline. A -campaign-stop-after interrupt exits 0 — it is
// the CI kill half of the kill-and-resume cycle, not a failure.
func runCampaign(cfg campaignConfig) error {
	spec, err := campaign.Grid(cfg.grid)
	if err != nil {
		return err
	}
	if cfg.trials > 0 {
		spec.Trials = cfg.trials
	}
	if cfg.seed != 0 {
		spec.BaseSeed = cfg.seed
	}

	rc := campaign.RunConfig{
		Workers:    cfg.workers,
		Checkpoint: cfg.checkpoint,
		StopAfter:  cfg.stopAfter,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if cfg.stream != "" {
		f, err := os.Create(cfg.stream)
		if err != nil {
			return err
		}
		defer f.Close()
		rc.Stream = f
	}

	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s: %d cells (trials=%d, spec %s)\n",
		spec.Name, len(cells), spec.Trials, spec.Fingerprint())

	doc, err := campaign.Run(spec, rc)
	if errors.Is(err, campaign.ErrStopped) {
		if cfg.checkpoint == "" {
			return fmt.Errorf("campaign stopped without a checkpoint; progress lost (use -campaign-checkpoint)")
		}
		fmt.Printf("campaign %s: interrupted; progress checkpointed to %s (rerun to resume)\n",
			spec.Name, cfg.checkpoint)
		return nil
	}
	if err != nil {
		return err
	}

	f, err := os.Create(cfg.out)
	if err != nil {
		return err
	}
	err = campaign.WriteDocument(f, doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote campaign document to %s (%d cells)\n", cfg.out, len(doc.Cells))
	if doc.Fit != nil {
		fmt.Printf("scaling fit: %s\n", doc.Fit)
	}

	if cfg.baseline == "" {
		return nil
	}
	base, err := campaign.LoadDocument(cfg.baseline)
	if err != nil {
		return err
	}
	warnings, err := campaign.CompareCampaign(base, doc, campaign.Tolerances{})
	for _, w := range warnings {
		fmt.Printf("warning: %s\n", w)
	}
	if err != nil {
		return err
	}
	fmt.Printf("campaign distribution gate passed vs %s\n", cfg.baseline)
	return nil
}
