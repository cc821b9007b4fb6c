package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/logic"
	"olfui/internal/obs"
)

// BenchmarkGenerateAllBench measures the fleet driver on the olfui benchmark
// circuit — the workload the incrementally pruned live-class list (vs
// rescanning every class per pattern) is aimed at.
func BenchmarkGenerateAllBench(b *testing.B) {
	n := bench.Build(8)
	u := fault.NewUniverse(n)
	b.ReportMetric(float64(u.NumFaults()), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if out.Stats.Aborted != 0 {
			b.Fatalf("%d aborted", out.Stats.Aborted)
		}
	}
}

// TestBenchVerdictsEqualWithLearning is the BENCH_PR7 equal-verdicts pin: the
// committed benchmark numbers only count if the learning screen resolves the
// exact same universe to the exact same classification as the plain engine.
// It also asserts the screen actually fires on the benchmark circuit, so the
// measured speedup includes it.
func TestBenchVerdictsEqualWithLearning(t *testing.T) {
	n := bench.Build(8)
	u := fault.NewUniverse(n)
	withLearn, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := atpg.GenerateAll(context.Background(), n, u, atpg.Options{NoLearn: true})
	if err != nil {
		t.Fatal(err)
	}
	if withLearn.Stats.Aborted != 0 || without.Stats.Aborted != 0 {
		t.Fatal("aborts on the benchmark; verdict equality only holds absent aborts")
	}
	if withLearn.Stats.Learned == 0 {
		t.Fatal("learning screened nothing on the benchmark circuit")
	}
	if withLearn.Stats.Detected != without.Stats.Detected ||
		withLearn.Stats.Untestable != without.Stats.Untestable {
		t.Fatalf("tallies differ: %d/%d with learning vs %d/%d without",
			withLearn.Stats.Detected, withLearn.Stats.Untestable,
			without.Stats.Detected, without.Stats.Untestable)
	}
	for id := 0; id < u.NumFaults(); id++ {
		fid := fault.FID(id)
		if a, b := withLearn.Status.Get(fid), without.Status.Get(fid); a != b {
			t.Errorf("%s: %v with learning, %v without", u.Describe(u.FaultOf(fid)), a, b)
		}
	}
}

// BenchmarkCampaignBench measures the full campaign — the baseline plus the
// three scenarios streaming into one merge.
func BenchmarkCampaignBench(b *testing.B) {
	cfg := config{width: 4, frames: 2}
	for i := 0; i < b.N; i++ {
		if err := runQuiet(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchConfig is the BENCH_PR9 workload: a swept campaign over the
// width-12 benchmark, every provider feeding its class list to the shared
// worker pool through a hardest-first lease queue. The backtrack limit keeps
// per-class search bounded so the measurement weighs scheduling and fault
// dropping rather than abort churn; learning is off because its build cost
// would only dilute that.
var sweepBenchConfig = config{
	width: 12, frames: 2, sweep: true, maxFrames: 2, limit: 64, noLearn: true,
}

// BenchmarkCampaignSweep measures the swept campaign.
func BenchmarkCampaignSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := runQuiet(sweepBenchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// runSweepCampaign is the BENCH_PR10 workload: the benchmark circuit's swept
// mission-reach scenario alone, run through the real campaign machinery with
// learning on and a multi-depth budget — the depth loop the cross-depth warm
// start accelerates (replay converts next-depth searches into pattern
// grading, Learning.Extend replaces the per-depth fact rebuild, and the
// grader's simulation graph extends in place), undiluted by the full-scan
// baseline and the non-swept scenarios. The backtrack limit is tighter than
// BENCH_PR9's because hard-class abort churn would only dilute the measured
// depth-loop cost.
func runSweepCampaign(tb testing.TB, reg *obs.Registry) *flow.SweepProvider {
	n := bench.Build(12)
	u := fault.NewUniverse(n)
	reach := bench.Scenarios(2)[2] // mission-reach: the swept shape
	c := flow.NewCampaign(n, u, flow.CampaignOptions{
		ATPG:    atpg.Options{BacktrackLimit: 32},
		Metrics: reg,
	})
	sp := &flow.SweepProvider{Scenario: reach, MaxFrames: 6}
	if err := c.Add(sp); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return sp
}

// BenchmarkCampaignSweepWarm measures the swept-scenario campaign.
func BenchmarkCampaignSweepWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSweepCampaign(b, nil)
	}
}

// TestCampaignSweepReplayFires pins that the BENCH_PR10 workload exercises
// the cross-depth pattern replay — it drops classes before search — so the
// benchmark measures all three warm-start layers rather than just the
// in-place extensions.
func TestCampaignSweepReplayFires(t *testing.T) {
	reg := obs.New()
	runSweepCampaign(t, reg)
	if dropped := reg.Counter("flow.sweep.replay.dropped").Load(); dropped == 0 {
		t.Fatal("replay dropped no classes on the benchmark workload — the benchmark no longer measures pattern replay")
	}
}

// quiet runs fn with stdout silenced (tests and benchmarks should not spam).
func quiet(fn func() error) error {
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()
	return fn()
}

// runQuiet runs the binary's whole path with stdout silenced.
func runQuiet(cfg config) error {
	return quiet(func() error { return run(context.Background(), cfg) })
}

func writeStim(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mission.stim")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadPatternSets(t *testing.T) {
	n := bench.Build(2) // 13 primary inputs
	path := writeStim(t, `
# inputs: a0 a1 b0 b1 cin op0 op1 op2 op3 scan_en scan_in debug_en rstn
seq add
1010110000001
011101000000X  # trailing comment
seq xor
1001000100001
`)
	sets, err := loadPatternSets(n, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || sets[0].Name != "add" || sets[1].Name != "xor" {
		t.Fatalf("sets = %+v", sets)
	}
	if len(sets[0].Stim.Cycles) != 2 || len(sets[1].Stim.Cycles) != 1 {
		t.Fatalf("cycle counts wrong: %d %d", len(sets[0].Stim.Cycles), len(sets[1].Stim.Cycles))
	}
	if got := sets[0].Stim.Cycles[1][12]; got != logic.X {
		t.Fatalf("X symbol parsed as %v", got)
	}
	if got := sets[0].Stim.Cycles[0][0]; got != logic.One {
		t.Fatalf("first symbol parsed as %v", got)
	}
	if len(sets[0].Stim.Inputs) != 13 {
		t.Fatalf("%d stimulus inputs, want 13", len(sets[0].Stim.Inputs))
	}

	for name, bad := range map[string]string{
		"row before seq": "1010110000001\n",
		"short row":      "seq s\n101\n",
		"bad symbol":     "seq s\n2010110000001\n",
		"empty seq":      "seq s\n",
		"duplicate seq":  "seq s\n1010110000001\nseq s\n1010110000001\n",
		"nameless seq":   "seq \n1010110000001\n",
		"no sequences":   "# nothing\n",
	} {
		if _, err := loadPatternSets(n, writeStim(t, bad)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestRunShardedWithPatterns drives the binary's whole path — the
// queue-fed baseline and scenarios, multi-frame injection, pattern import,
// cross-checks, multi-site oracle selfcheck — end to end.
func TestRunShardedWithPatterns(t *testing.T) {
	path := writeStim(t, `
seq add-sweep
1010110000001
0111010000001
1111110000001
seq xor-walk
1001000100001
0110000100001
`)
	cfg := config{width: 2, frames: 2, patterns: path, selfcheck: true}
	if err := runQuiet(cfg); err != nil {
		t.Fatal(err)
	}
}

// campaignQuiet runs the campaign with stdout silenced and returns the
// report for comparison.
func campaignQuiet(t *testing.T, cfg config) *flow.Report {
	t.Helper()
	var r *flow.Report
	err := quiet(func() error {
		var err error
		r, _, err = runCampaign(context.Background(), cfg, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFlagValidation pins the up-front flag rejections: each inconsistent
// combination fails with a one-line error naming the flag, before any
// transform or provider work starts.
func TestFlagValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg  config
		want string
	}{
		"frames":     {config{width: 2, frames: 0}, "-frames"},
		"max-frames": {config{width: 2, frames: 3, maxFrames: 2}, "-max-frames"},
		"resume":     {config{width: 2, frames: 2, resume: true}, "-resume"},
	} {
		_, _, err := runCampaign(context.Background(), tc.cfg, nil)
		if err == nil {
			t.Errorf("%s: want rejection", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.want)
		}
	}
}

// TestRunSweepSelfcheck drives the binary's sweep path end to end: adaptive
// depth sweep with per-depth exhaustive selfchecks, report table, and the
// final cross-checks.
func TestRunSweepSelfcheck(t *testing.T) {
	cfg := config{width: 1, frames: 2, sweep: true, maxFrames: 3, selfcheck: true}
	if err := runQuiet(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSweepMatchesOneShotOnBench is the acceptance criterion on the olfui
// benchmark: the sweep's converged report classifies every fault exactly as
// a one-shot campaign at the sweep's final depth does (absent aborts).
func TestSweepMatchesOneShotOnBench(t *testing.T) {
	// Deeper frames need more backtracks than the default limit allows on
	// the width-2 bench; equality is only claimed absent aborts.
	swept := campaignQuiet(t, config{width: 2, frames: 2, sweep: true, maxFrames: 4, limit: 1 << 20})
	var sw *flow.SweepResult
	for _, sr := range swept.Scenarios {
		if sr.Sweep != nil {
			if sw != nil {
				t.Fatal("more than one swept scenario")
			}
			sw = sr.Sweep
		}
	}
	if sw == nil {
		t.Fatal("no scenario swept")
	}
	oneshot := campaignQuiet(t, config{width: 2, frames: sw.FinalFrames, limit: 1 << 20})
	for _, r := range []*flow.Report{swept, oneshot} {
		for _, sr := range r.Scenarios {
			if sr.Outcome.Stats.Aborted != 0 {
				t.Fatalf("scenario %q aborted %d classes; equality only holds absent aborts",
					sr.Scenario.Name, sr.Outcome.Stats.Aborted)
			}
		}
	}
	for id := range swept.Class {
		if swept.Class[id] != oneshot.Class[id] {
			t.Errorf("fault %d: %v swept vs %v one-shot at k=%d",
				id, swept.Class[id], oneshot.Class[id], sw.FinalFrames)
		}
	}
	// The one-shot unrolled reach scenario must have run under multi-frame
	// injection.
	var reach *flow.ScenarioResult
	for _, sr := range oneshot.Scenarios {
		if sr.Scenario.Name == "mission-reach" {
			reach = sr
		}
	}
	if reach == nil || reach.Sites.Empty() {
		t.Fatal("mission-reach scenario did not run under multi-frame injection")
	}
}
