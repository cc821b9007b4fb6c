package main

import "olfui/internal/obs"

// layerSample is one traced campaign's raw per-layer readings: the program's
// telemetry snapshot, the direct grading run's counters, and the
// benchmark-side spans.
type layerSample struct {
	snap      *obs.Snapshot
	grade     *obs.Snapshot // counters of the direct Grader.Grade call
	bench     *obs.Snapshot // the benchmark's own spans
	campaignS float64
	gates     int
	classes   int
	walBytes  int64
}

const nsPerS = 1e9

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer derives the per-layer metrics of one traced campaign. Worker busy
// and wait time come from the scheduler's counters, never from provider span
// durations, which include pool wait.
func (s layerSample) perLayer(workers int) map[string]metric {
	c := func(name string) float64 { return float64(s.snap.Counter(name)) }
	h := func(name string) obs.HistogramSnapshot { return s.snap.Histograms[name] }
	sumS := func(name string) float64 { return float64(h(name).Sum) / nsPerS }
	g := func(name string) float64 { return float64(s.grade.Counter(name)) }
	spanS := func(name string) float64 {
		if sp := s.bench.FindSpan(name); sp != nil {
			return float64(sp.DurNS) / nsPerS
		}
		return 0
	}

	search := h("atpg.search_ns")
	searchS := float64(search.Sum) / nsPerS
	busyS := sumS("sched.worker_busy_ns")
	gradeSeqS := 0.0
	if sp := s.snap.FindSpan("provider:patterns"); sp != nil {
		gradeSeqS = float64(sp.DurNS) / nsPerS
	}
	depths := h("flow.sweep.depth_ns")

	m := map[string]metric{}
	add := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	add("netlist.build_s", "s", spanS("netlist.build"))
	add("netlist.annotate_s", "s", spanS("netlist.annotate"))
	add("netlist.gates", "count", float64(s.gates))

	add("fault.universe_s", "s", spanS("fault.universe"))
	add("fault.collapse_s", "s", spanS("fault.collapse"))
	add("fault.classes", "count", float64(s.classes))

	add("constraint.unroll.build_s", "s", sumS("constraint.unroll.build_ns"))
	add("constraint.unroll.extend_s", "s", sumS("constraint.unroll.extend_ns"))

	add("atpg.search_s", "s", searchS)
	add("atpg.search_max_s", "s", float64(search.Max)/nsPerS)
	add("atpg.searches", "count", float64(search.Count))
	add("atpg.backtracks", "count", c("atpg.backtracks"))
	add("atpg.decisions", "count", c("atpg.decisions"))
	add("atpg.implications", "count", c("atpg.implications"))
	add("atpg.implication_us", "us", ratio(searchS*1e6, c("atpg.implications")))
	add("atpg.classes.aborted", "count", c("atpg.classes.aborted"))
	add("atpg.resolved_ratio", "frac",
		ratio(c("atpg.classes.detected")+c("atpg.classes.untestable"), c("atpg.classes")))
	add("atpg.learn_s", "s", sumS("learn.build_ns")+sumS("learn.extend_ns"))
	add("atpg.learned_untestable", "count", c("atpg.learned_untestable"))
	add("atpg.drop.graded", "count", c("atpg.drop.graded"))
	add("atpg.drop.hits", "count", c("atpg.drop.hits"))
	add("atpg.drop_hit_ratio", "frac", ratio(c("atpg.drop.hits"), c("atpg.drop.graded")))

	add("sim.grade_s", "s", spanS("sim.grade"))
	add("sim.grade.words", "count", g("sim.grade.words"))
	add("sim.grade.fault_evals", "count", g("sim.grade.fault_evals"))
	add("sim.screen_ratio", "frac",
		ratio(g("sim.grade.screened"), g("sim.grade.screened")+g("sim.grade.fault_evals")))
	add("sim.gradeseq_s", "s", gradeSeqS)
	add("sim.gradeseq.cycles", "count", c("sim.gradeseq.cycles"))
	add("sim.gradeseq.lane_util", "frac", ratio(c("sim.gradeseq.lanes"), 63*c("sim.gradeseq.words")))

	add("sched.busy_s", "s", busyS)
	add("sched.queue_wait_s", "s", c("sched.queue_wait_ns")/nsPerS)
	add("sched.utilization", "frac", ratio(busyS, float64(workers)*s.campaignS))
	add("sched.chunks", "count", c("sched.chunks"))
	add("sched.steals", "count", c("sched.steals"))

	add("flow.prep_s", "s", sumS("flow.prep_ns"))
	add("flow.sweep.depths", "count", float64(depths.Count))
	add("flow.sweep.depth_max_s", "s", float64(depths.Max)/nsPerS)
	add("flow.sweep.replay.dropped", "count", c("flow.sweep.replay.dropped"))
	add("flow.sweep.replay.grade_s", "s", sumS("flow.sweep.replay.grade_ns"))
	add("flow.deltas", "count", c("flow.deltas"))
	add("flow.delta_entries", "count", c("flow.delta_entries"))
	add("flow.merge_wait_s", "s", sumS("flow.merge_wait_ns"))

	add("journal.wal_bytes", "bytes", float64(s.walBytes))
	add("journal.recover_s", "s", spanS("journal.recover"))
	return m
}
