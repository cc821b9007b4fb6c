package sim

import (
	"context"
	"fmt"

	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
)

// Pattern is one combinational input vector, indexed like the slice returned
// by Netlist.PrimaryInputs.
type Pattern []logic.V

// ObsPoint is an observation point: a specific gate input pin whose value is
// compared between good and faulty machines. Using pins rather than nets
// makes faults on the observation pin itself (e.g. a primary-output input
// pin) detectable.
type ObsPoint struct {
	Gate netlist.GateID
	Pin  int32
}

// CombObsPoints returns the standard full-scan observation points of a
// netlist: primary-output input pins and flip-flop data pins.
func CombObsPoints(n *netlist.Netlist) []ObsPoint {
	var pts []ObsPoint
	for i := range n.Gates {
		g := &n.Gates[i]
		switch g.Kind {
		case netlist.KOutput:
			pts = append(pts, ObsPoint{netlist.GateID(i), 0})
		case netlist.KDFF, netlist.KDFFR:
			pts = append(pts, ObsPoint{netlist.GateID(i), netlist.DffD})
		}
	}
	return pts
}

// OutputObsPoints returns only the primary-output input pins — the
// observation points available to an on-line functional test.
func OutputObsPoints(n *netlist.Netlist) []ObsPoint {
	var pts []ObsPoint
	for i := range n.Gates {
		if n.Gates[i].Kind == netlist.KOutput {
			pts = append(pts, ObsPoint{netlist.GateID(i), 0})
		}
	}
	return pts
}

// ObsVal reads the current value at an observation point, with injections
// applied.
func (s *Simulator) ObsVal(p ObsPoint) logic.PV {
	return s.pinVal(p.Gate, &s.N.Gates[p.Gate], int(p.Pin))
}

// GradeComb fault-simulates the given faults against the patterns using
// pattern-parallel single-fault propagation (64 patterns per pass) and
// returns the set of detected faults. Detection points are the full-scan
// observation points (primary outputs and flip-flop D pins); flip-flop
// outputs are treated as controllable pseudo-inputs and must be driven by
// the patterns too — pass statePatterns aligned with Netlist.FlipFlops, or
// nil to hold all state at X.
func GradeComb(n *netlist.Netlist, u *fault.Universe, patterns []Pattern,
	statePatterns []Pattern, faults []fault.FID) (*fault.Set, error) {

	gr, err := NewGrader(n, u)
	if err != nil {
		return nil, err
	}
	return gr.Grade(patterns, statePatterns, faults), nil
}

// Stimulus is a cycle-by-cycle input sequence for sequential grading.
type Stimulus struct {
	Inputs []netlist.NetID // nets to drive: primary-input nets only
	Cycles [][]logic.V     // Cycles[c][i] drives Inputs[i] in cycle c
}

// validate checks the stimulus against a netlist: every driven net must be
// the output of a primary-input gate (any other net would be overwritten by
// its own driver when the network settles), and every cycle must carry
// exactly one value per driven net.
func (st Stimulus) validate(n *netlist.Netlist) error {
	for i, net := range st.Inputs {
		if net < 0 || int(net) >= len(n.Nets) {
			return fmt.Errorf("stimulus input %d: net %d out of range", i, net)
		}
		if d := n.Nets[net].Driver; d == netlist.InvalidGate || n.Gates[d].Kind != netlist.KInput {
			return fmt.Errorf("stimulus input %d: net %q is not a primary input", i, n.Nets[net].Name)
		}
	}
	for c, row := range st.Cycles {
		if len(row) != len(st.Inputs) {
			return fmt.Errorf("stimulus cycle %d has %d values, want %d", c, len(row), len(st.Inputs))
		}
	}
	return nil
}

// GradeSeq fault-simulates the given faults against a sequential stimulus
// and returns the set of detected faults. All state starts at X. Every
// cycle drives the stimulus inputs, settles the network, samples the
// observation points (before the clock edge) and clocks the flip-flops. A
// fault is detected in the first cycle where an observation point reads a
// known value opposite to the good machine's known value. Each fault is
// expanded through the site map before injection, so its faulty machine has
// every replica site stuck at once — how a permanent defect on a
// time-expanded clone is graded; a nil map grades single-site faults. A nil
// registry disables telemetry. The context is polled once per cycle.
//
// Grading is differential. Faults are packed 63 to a 64-bit word, one
// faulty machine per lane. Each cycle settles one good machine, then each
// word with undetected lanes installs those lanes' injections, seeds events
// from its divergent flip-flop state and its injected gates, propagates them
// in topological order over the good values, ORs the observation-point
// differences into its detected lanes, keeps its next state only for the
// flip-flops whose faulty next state differs from the good one, and rolls
// back. This is exact: a faulty gate output can differ from the good one
// only if one of its inputs differs or the gate itself is injected, and
// both are seeded or scheduled. Lanes are independent, so resetting a
// detected lane to the good machine (dropping its injections and state)
// changes no other lane; a word retires once every lane is detected, and
// grading stops once every word has.
//
// Counters:
//
//	sim.gradeseq.lanes      fault lanes graded — one per fault, 63 share a word
//	sim.gradeseq.words      63-lane words; lanes/(63*words) is the lane
//	                        utilization
//	sim.gradeseq.cycles     clock cycles simulated, summed over words (a
//	                        retired word stops counting)
//	sim.gradeseq.gate_evals gates evaluated in faulty words
func GradeSeq(ctx context.Context, n *netlist.Netlist, u *fault.Universe, stim Stimulus,
	observe []ObsPoint, faults []fault.FID, sm *fault.SiteMap, reg *obs.Registry) (*fault.Set, error) {

	if err := stim.validate(n); err != nil {
		return nil, err
	}
	if observe == nil {
		observe = []ObsPoint{} // NewGraderSites reads nil as full-scan
	}
	gr, err := NewGraderSites(n, u, observe, sm)
	if err != nil {
		return nil, err
	}

	const lanes = logic.WordBits - 1
	words := make([]seqWord, 0, (len(faults)+lanes-1)/lanes)
	for base := 0; base < len(faults); base += lanes {
		batch := faults[base:min(base+lanes, len(faults))]
		words = append(words, seqWord{faults: batch, live: 1<<uint(len(batch)) - 1})
	}
	reg.Counter("sim.gradeseq.lanes").Add(int64(len(faults)))
	reg.Counter("sim.gradeseq.words").Add(int64(len(words)))

	detected := fault.NewSet(u)
	var cycles, evals int64
	s := gr.good
	s.ClearState(logic.X)
	for _, row := range stim.Cycles {
		if len(words) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, net := range stim.Inputs {
			s.SetInputV(net, row[i])
		}
		s.EvalComb()
		s.computeNext()
		cycles += int64(len(words))
		live := words[:0]
		for i := range words {
			w := &words[i]
			evals += int64(gr.stepWord(w, detected))
			if w.live != 0 {
				live = append(live, *w)
			}
		}
		words = live
		s.latch()
	}
	reg.Counter("sim.gradeseq.cycles").Add(cycles)
	reg.Counter("sim.gradeseq.gate_evals").Add(evals)
	return detected, nil
}

// seqWord is one 63-lane word of faulty machines in a sequential grading.
type seqWord struct {
	faults []fault.FID // lane i grades faults[i]
	live   uint64      // lanes not yet detected
	// state holds the flip-flops whose faulty next state differs from the
	// good machine's, with detected lanes reset to good; spare is the
	// buffer the next cycle's state is built in.
	state, spare []ffState
}

// ffState is one flip-flop's divergent next state (before any output
// injection) across a word's lanes.
type ffState struct {
	ff netlist.GateID
	v  logic.PV
}

// stepWord simulates one word through the current cycle on top of the
// settled good machine, whose next state is in the simulator's next array,
// and adds newly detected faults to detected. It returns the number of
// gates evaluated.
func (gr *Grader) stepWord(w *seqWord, detected *fault.Set) int {
	s := gr.good
	for lane, fid := range w.faults {
		m := uint64(1) << uint(lane)
		if w.live&m == 0 {
			continue
		}
		f := gr.u.FaultOf(fid)
		s.AddInjection(Injection{Site: f.Site, SA: f.SA, Mask: m})
		for _, rep := range gr.sm.Replicas(f.Gate) {
			s.AddInjection(Injection{Site: fault.Site{Gate: rep, Pin: f.Pin}, SA: f.SA, Mask: m})
		}
	}

	// Divergent state goes in before the injections are seeded, so an
	// output-injected flip-flop re-applies its stuck value on top of it.
	ep := gr.beginEvent()
	for _, st := range w.state {
		gr.writeNet(s.N.Gates[st.ff].Out, st.v, ep)
	}
	evals := gr.settleCone(ep)

	if caught := gr.obsDiff(ep, false) & w.live; caught != 0 {
		for lane, fid := range w.faults {
			if caught&(1<<uint(lane)) != 0 {
				detected.Add(fid)
			}
		}
		w.live &^= caught
	}

	// A flip-flop's faulty next state can differ from the good one only if
	// a net it reads changed or it carries an injection. The sched stamps
	// double as the visited marks: flip-flops are never scheduled.
	next := w.spare[:0]
	keep := func(f netlist.GateID) {
		if gr.sched[f] == ep {
			return
		}
		gr.sched[f] = ep
		good := s.next[f]
		if v := logic.Select(w.live, s.nextState(f), good); v != good {
			next = append(next, ffState{f, v})
		}
	}
	for _, net := range gr.undoNets {
		for _, c := range gr.graph.Consumers(net) {
			if gr.graph.Pos(c) < 0 {
				keep(c)
			}
		}
	}
	for _, gid := range s.injGates {
		if s.N.Gates[gid].Kind.IsState() {
			keep(gid)
		}
	}
	w.state, w.spare = next, w.state
	gr.rollback()
	return evals
}
