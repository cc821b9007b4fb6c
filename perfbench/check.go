package main

import (
	"errors"
	"fmt"

	"olfui/internal/atpg"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/sim"
)

// campaignError labels a campaign failure, naming the lattice conflict rule
// explicitly when it fired.
func campaignError(err error) error {
	var ce *fault.ConflictError
	if errors.As(err, &ce) {
		return fmt.Errorf("campaign hit a detected/untestable conflict: %w", err)
	}
	return fmt.Errorf("campaign failed: %w", err)
}

// classify counts the report's per-fault classification.
func classify(r *flow.Report) counts {
	var c counts
	for _, cl := range r.Class {
		switch cl {
		case flow.FullScanTestable:
			c.FullScanTestable++
		case flow.FuncUntestable:
			c.FuncUntestable++
		default:
			c.Unresolved++
		}
	}
	return c
}

// check is the correctness gate of one campaign. The classification must
// equal the workload's pinned counts, every Detected verdict of the baseline
// and of every scenario must be re-confirmed by fault simulation of the
// emitted test set (on the scenario's clone, with faults expanded through its
// site map), no Untestable verdict may be detected by that test set, and no
// imported stimulus may detect a fault the baseline proved untestable.
func check(w workload, r *flow.Report) error {
	if got := classify(r); got != w.want {
		return fmt.Errorf("classification %+v, want %+v", got, w.want)
	}
	base, err := sim.NewGrader(r.N, r.Universe)
	if err != nil {
		return err
	}
	if err := confirm("full-scan", base, r.Baseline); err != nil {
		return err
	}
	for _, sr := range r.Scenarios {
		if sr.Restored {
			return fmt.Errorf("scenario %q restored from a journal in a fresh campaign", sr.Scenario.Name)
		}
		gr, err := sim.NewGraderSites(sr.Clone, sr.Universe, sr.Obs, sr.Sites)
		if err != nil {
			return err
		}
		if err := confirm(sr.Scenario.Name, gr, sr.Outcome); err != nil {
			return err
		}
	}
	if r.PatternDetected != nil {
		if r.PatternDetected.Count() == 0 {
			return fmt.Errorf("imported stimuli detected no fault")
		}
		for _, fid := range r.Baseline.Status.FaultsWith(fault.Untestable) {
			if r.PatternDetected.Has(fid) {
				return fmt.Errorf("imported stimuli detect %s, which full-scan ATPG proved untestable",
					r.Universe.Describe(r.Universe.FaultOf(fid)))
			}
		}
	}
	return nil
}

// confirm grades an outcome's emitted test set against its own verdicts.
func confirm(name string, gr *sim.Grader, out *atpg.Outcome) error {
	det := out.Status.FaultsWith(fault.Detected)
	if got := gr.Grade(out.Patterns, out.States, det).Count(); got != len(det) {
		return fmt.Errorf("%s: test set detects %d of %d Detected faults", name, got, len(det))
	}
	unt := out.Status.FaultsWith(fault.Untestable)
	if got := gr.Grade(out.Patterns, out.States, unt).Count(); got != 0 {
		return fmt.Errorf("%s: test set detects %d Untestable faults", name, got)
	}
	return nil
}

// resolvedFrac is the share of targeted class verdicts that are Detected or
// Untestable, summed over the baseline and every scenario (every depth of a
// swept scenario).
func resolvedFrac(r *flow.Report) float64 {
	var resolved, targeted int
	add := func(s atpg.Stats) {
		resolved += s.Detected + s.Untestable
		targeted += s.Classes
	}
	add(r.Baseline.Stats)
	for _, sr := range r.Scenarios {
		if sr.Sweep == nil {
			add(sr.Outcome.Stats)
			continue
		}
		for _, d := range sr.Sweep.Depths {
			add(d.Stats)
		}
	}
	if targeted == 0 {
		return 0
	}
	return float64(resolved) / float64(targeted)
}
