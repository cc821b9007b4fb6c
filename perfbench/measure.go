package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/journal"
	"olfui/internal/obs"
	"olfui/internal/sim"
)

// An untraced campaign's set-up is repeated at least setupMinReps times and
// until setupMinTime has been spent, so even sub-millisecond set-ups yield a
// steady median; setup_s is the median over every repetition of the run.
const (
	setupMinReps = 16
	setupMinTime = 100 * time.Millisecond
)

// runner runs one workload's campaigns and collects their samples.
type runner struct {
	w       workload
	dir     string // per-process scratch directory for journals
	stimuli []flow.PatternSet

	attempted, failed int
	setupS            []float64
	traces            []traceDump
}

// sample is one successful campaign's end-to-end readings.
type sample struct {
	campaignS, cpuS, allocMB, resolved float64
	layers                             map[string]metric // traced campaigns only
}

// traceDump is one traced campaign's record in the trace file.
type traceDump struct {
	Bench   *obs.Snapshot `json:"bench"`
	Program *obs.Snapshot `json:"program"`
}

func newRunner(w workload, seed int64, dir string) (*runner, error) {
	b := &runner{w: w, dir: dir}
	if w.stimuli > 0 {
		// Stimulus generation is benchmark work, outside every timing. Input
		// net IDs are fixed by the width, so one build serves every campaign.
		var err error
		b.stimuli, err = missionStimuli(bench.Build(w.width), seed, w.stimuli, stimulusCycles)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// runUntraced times campaigns with telemetry off until the window is spent
// and reports the end-to-end metrics as medians over them.
func (b *runner) runUntraced(seconds float64) (result, error) {
	var samples []sample
	start := time.Now()
	for {
		t0 := time.Now()
		s, ok, err := b.campaign(false)
		if err != nil {
			return result{}, err
		}
		if ok {
			samples = append(samples, s)
		}
		if !more(start, t0, seconds) {
			break
		}
	}
	return b.result(map[string]metric{
		"campaign_s":    {medianOf(samples, func(s sample) float64 { return s.campaignS }), "s"},
		"cpu_s":         {medianOf(samples, func(s sample) float64 { return s.cpuS }), "s"},
		"alloc_mb":      {medianOf(samples, func(s sample) float64 { return s.allocMB }), "MB"},
		"resolved_frac": {medianOf(samples, func(s sample) float64 { return s.resolved }), "frac"},
		"setup_s":       {median(b.setupS), "s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}), nil
}

// runTraced alternates untraced and traced campaigns until the window is
// spent (at least one of each) and reports the median of every per-layer
// metric over the traced ones, plus the tracing overhead: the traced median
// campaign time over the untraced one, minus one.
func (b *runner) runTraced(seconds float64) (result, error) {
	var plain, traced []sample
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		tracing := i%2 == 1
		s, ok, err := b.campaign(tracing)
		if err != nil {
			return result{}, err
		}
		if ok && !tracing {
			plain = append(plain, s)
		} else if ok {
			traced = append(traced, s)
		}
		if i >= 1 && !more(start, t0, seconds) {
			break
		}
	}
	ms := map[string]metric{}
	if len(traced) > 0 {
		for name, m := range traced[0].layers {
			ms[name] = metric{medianOf(traced, func(s sample) float64 { return s.layers[name].Value }), m.Unit}
		}
	}
	overhead := 0.0
	if len(plain) > 0 && len(traced) > 0 {
		wall := func(s sample) float64 { return s.campaignS }
		overhead = medianOf(traced, wall)/medianOf(plain, wall) - 1
	}
	ms["obs.trace_overhead_frac"] = metric{overhead, "frac"}
	return b.result(ms), nil
}

// more reports whether another campaign fits the window that opened at
// start: the last one began at last, and the next is expected to take as
// long. A campaign may start if at least half of it fits, so a run uses its
// whole window and overruns it by at most half a campaign.
func more(start, last time.Time, seconds float64) bool {
	took := time.Since(last).Seconds()
	return time.Since(start).Seconds()+took/2 <= seconds
}

func (b *runner) result(ms map[string]metric) result {
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   ms,
	}
}

// campaign sets up and runs one campaign, then checks it. Untraced, set-up
// is repeated and telemetry is off; traced, the program's telemetry is on,
// the benchmark records its own spans on a registry of its own, and the
// per-layer metrics are derived. ok is false when the campaign failed or its
// check did; err is reserved for failures of the benchmark itself.
func (b *runner) campaign(traced bool) (s sample, ok bool, err error) {
	var reg, spans *obs.Registry // both nil when untraced: every span is a no-op
	if traced {
		reg, spans = obs.New(), obs.New()
	}
	root := spans.Root("campaign-run:" + b.w.name)
	in, err := b.setup(root)
	if err != nil {
		return sample{}, false, err
	}
	defer func() {
		if rerr := in.release(); err == nil {
			err = rerr
		}
	}()

	scenarios := bench.Scenarios(2)[:b.w.scenarios]
	opts := b.w.options(in, b.stimuli)
	var campaignStart time.Time
	cs := root.Child("campaign")
	if traced {
		// The callbacks record instants, not intervals: each becomes a child
		// span of the campaign carrying its offset from the campaign start.
		opts.Metrics = reg
		opts.Progress = func(e flow.Event) {
			if e.Done {
				sp := cs.Child("provider:" + e.Provider)
				sp.SetInt("done_ns", e.Time.Sub(campaignStart).Nanoseconds())
				sp.SetInt("deltas", int64(e.Seq))
				sp.End()
			}
		}
		opts.SweepOnDepth = func(name string, d flow.SweepDepth) error {
			sp := cs.Child(fmt.Sprintf("sweep:%s@k=%d", name, d.Frames))
			sp.SetInt("done_ns", time.Since(campaignStart).Nanoseconds())
			sp.SetInt("classes", int64(d.Stats.Classes))
			sp.SetInt("aborted", int64(d.Stats.Stats.Aborted))
			sp.SetInt("replay_dropped", int64(d.Stats.ReplayDropped))
			sp.SetInt("new_untestable", int64(d.Stats.NewUntestable))
			sp.End()
			return nil
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	campaignStart = time.Now()
	r, err := flow.RunCampaign(context.Background(), in.n, in.u, scenarios, opts)
	s.campaignS = time.Since(campaignStart).Seconds()
	s.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	cs.End()
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	b.attempted++
	if err == nil {
		ck := root.Child("check")
		err = check(b.w, r)
		ck.End()
	} else {
		err = campaignError(err)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s campaign %d failed: %v\n", b.w.name, b.attempted, err)
		return sample{}, false, nil
	}
	s.resolved = resolvedFrac(r)
	fmt.Fprintf(os.Stderr, "perfbench: %s campaign %d: %.3f s wall, %.3f s cpu, %.1f MB allocated, traced=%v\n",
		b.w.name, b.attempted, s.campaignS, s.cpuS, s.allocMB, traced)
	if traced {
		if s.layers, err = b.layers(spans, root, reg, r, in, s.campaignS); err != nil {
			return sample{}, false, err
		}
		b.traces = append(b.traces, traceDump{Bench: spans.Snapshot(), Program: reg.Snapshot()})
	}
	return s, true, nil
}

// setup prepares one campaign's starting state. Untraced, it repeats the
// set-up (see setupMinReps), timing each repetition, and keeps the last;
// traced (a non-nil parent), it runs it once under spans.
func (b *runner) setup(parent *obs.Span) (*instance, error) {
	if parent != nil {
		return b.w.setup(b.dir, parent)
	}
	runtime.GC() // start from a clean heap, as the campaign does
	var in *instance
	var spent time.Duration
	for i := 0; i < setupMinReps || spent < setupMinTime; i++ {
		if in != nil {
			if err := in.release(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		in, err = b.w.setup(b.dir, nil)
		d := time.Since(t0)
		spent += d
		b.setupS = append(b.setupS, d.Seconds())
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// layers runs the traced campaign's benchmark-side layer calls — annotation,
// collapse, a direct grading of the emitted baseline test set over every
// class, and journal recovery — under child spans of root, then ends root
// and derives the per-layer metrics from both registries.
func (b *runner) layers(spans *obs.Registry, root *obs.Span, reg *obs.Registry, r *flow.Report, in *instance, campaignS float64) (map[string]metric, error) {
	sp := root.Child("netlist.annotate")
	_, err := r.N.Annotate()
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = root.Child("fault.collapse")
	col := fault.NewCollapse(r.Universe)
	sp.End()
	var classes []fault.FID
	for id := 0; id < r.Universe.NumFaults(); id++ {
		if fid := fault.FID(id); col.Rep(fid) == fid {
			classes = append(classes, fid)
		}
	}

	gradeReg := obs.New()
	gr, err := sim.NewGrader(r.N, r.Universe)
	if err != nil {
		return nil, err
	}
	gr.Instrument(gradeReg)
	sp = root.Child("sim.grade")
	gr.Grade(r.Baseline.Patterns, r.Baseline.States, classes)
	sp.End()

	var wal int64
	if in.jdir != "" {
		if err := in.closeJournal(); err != nil {
			return nil, err
		}
		if wal, err = walBytes(in.jdir); err != nil {
			return nil, err
		}
		sp = root.Child("journal.recover")
		j, err := journal.Open(in.jdir, journal.Options{})
		sp.End()
		if err != nil {
			return nil, err
		}
		recovered := j.Recovered() != nil
		if err := j.Close(); err != nil {
			return nil, err
		}
		if !recovered {
			return nil, fmt.Errorf("journal of a finished campaign recovered nothing")
		}
	}

	root.End()
	return layerSample{
		snap:      reg.Snapshot(),
		grade:     gradeReg.Snapshot(),
		bench:     spans.Snapshot(),
		campaignS: campaignS,
		gates:     len(r.N.Gates),
		classes:   len(classes),
		walBytes:  wal,
	}.perLayer(workers()), nil
}

// writeTraces writes every traced campaign's benchmark spans and program
// telemetry snapshot to path.
func (b *runner) writeTraces(path string) error {
	data, err := json.MarshalIndent(b.traces, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// medianOf is the median of f over ss (0 when ss is empty).
func medianOf(ss []sample, f func(sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	return median(vs)
}

// median of vs (0 when empty); vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}
