package sim

import (
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/obs"
)

// Grader is a reusable PPSFP combinational fault-grading engine. It keeps one
// simulator plus all per-batch and per-fault scratch allocated across calls,
// so tight generate-then-drop loops (the ATPG fleet driver) neither rebuild
// levelized state nor churn the allocator per pattern.
//
// Grading is event-driven: the good machine is settled once per 64-pattern
// word, and each fault then re-evaluates only the cone reachable from its
// injection sites, recording changed nets in an undo log that is rolled back
// before the next fault. Values are identical to a full faulty-machine pass —
// a gate's output can differ from the good machine only if an input net
// differs or the gate itself carries an injection, and both cases are seeded
// or scheduled (see TestGraderMatchesFullEvalReference). GradeSeq runs its
// sequential fault words on the same machinery. A Grader is not safe for
// concurrent use.
type Grader struct {
	n     *netlist.Netlist
	u     *fault.Universe
	sm    *fault.SiteMap
	good  *Simulator
	graph *netlist.Graph
	pis   []netlist.GateID
	ffs   []netlist.GateID
	obs   []ObsPoint

	// Per-batch input-packing scratch.
	piVals []logic.PV
	ffVals []logic.PV

	// Per-fault event-driven scratch. epoch stamps replace clearing: a
	// sched/chStamp entry is valid only when it equals the current epoch.
	epoch    uint64
	sched    []uint64 // per gate: epoch when scheduled
	heap     []int32  // min-heap of pending order positions
	chStamp  []uint64 // per net: epoch when changed
	chIdx    []int32  // per net: undo-log index when changed
	undoNets []netlist.NetID
	undoVals []logic.PV

	// Observation points indexed two ways: by the net their pin reads (a
	// changed net can flip them) and by their gate (a pin injection on the
	// obs gate can flip them with no net change).
	obsNetStart  []int32
	obsNetIdx    []int32
	obsGateStart []int32
	obsGateIdx   []int32

	// Telemetry handles, armed by Instrument; nil handles no-op, so an
	// uninstrumented grader pays one branch per record.
	mPatterns   *obs.Counter
	mWords      *obs.Counter
	mFaultEvals *obs.Counter
	mScreened   *obs.Counter
}

// Instrument attaches a telemetry registry. Counters:
//
//	sim.grade.patterns    patterns graded (pre-packing)
//	sim.grade.words       pattern-parallel 64-wide batches evaluated —
//	                      patterns/(64*words) is the PV-word utilization
//	sim.grade.fault_evals faulty-machine cone evaluations actually run
//	sim.grade.screened    per-word fault gradings skipped by the activation
//	                      screen (no lane controls any site to the opposite
//	                      of its stuck value, so no detection is possible)
//
// A nil registry resolves nil handles and recording stays a no-op.
func (gr *Grader) Instrument(reg *obs.Registry) {
	gr.mPatterns = reg.Counter("sim.grade.patterns")
	gr.mWords = reg.Counter("sim.grade.words")
	gr.mFaultEvals = reg.Counter("sim.grade.fault_evals")
	gr.mScreened = reg.Counter("sim.grade.screened")
}

// NewGrader builds a grader for the netlist. Detection points are the
// full-scan observation points (primary outputs and flip-flop D pins).
func NewGrader(n *netlist.Netlist, u *fault.Universe) (*Grader, error) {
	return NewGraderSites(n, u, nil, nil)
}

// NewGraderObs builds a grader detecting only at the given observation
// points; nil means the full-scan set (CombObsPoints). Restricted graders are
// what keeps fault dropping sound when ATPG itself runs with restricted
// observability: a pattern may only drop a fault if the difference shows at a
// point the scenario actually observes.
func NewGraderObs(n *netlist.Netlist, u *fault.Universe, obs []ObsPoint) (*Grader, error) {
	return NewGraderSites(n, u, obs, nil)
}

// NewGraderSites builds a grader that expands each graded fault through the
// site map before injection: every site of the joint injection is stuck
// simultaneously in the faulty machine. A nil map is classical single-site
// grading. Graders used to drop faults for a multi-site ATPG run must share
// the run's site map for the same reason they share its observation points:
// detection claims on differently injected machines do not transfer.
func NewGraderSites(n *netlist.Netlist, u *fault.Universe, obsPts []ObsPoint, sm *fault.SiteMap) (*Grader, error) {
	good, err := New(n)
	if err != nil {
		return nil, err
	}
	if obsPts == nil {
		obsPts = CombObsPoints(n)
	}
	gr := &Grader{
		n:       n,
		u:       u,
		sm:      sm,
		good:    good,
		graph:   good.Graph(),
		pis:     n.PrimaryInputs(),
		ffs:     n.FlipFlops(),
		obs:     obsPts,
		sched:   make([]uint64, len(n.Gates)),
		chStamp: make([]uint64, len(n.Nets)),
		chIdx:   make([]int32, len(n.Nets)),
	}
	gr.piVals = make([]logic.PV, len(gr.pis))
	gr.ffVals = make([]logic.PV, len(gr.ffs))
	gr.obsNetStart, gr.obsNetIdx = buildObsCSR(len(n.Nets), obsPts, func(p ObsPoint) int32 {
		return int32(n.Gates[p.Gate].Ins[p.Pin])
	})
	gr.obsGateStart, gr.obsGateIdx = buildObsCSR(len(n.Gates), obsPts, func(p ObsPoint) int32 {
		return int32(p.Gate)
	})
	return gr, nil
}

// Graph returns the grader's forward-propagation index — the one instance
// shared with its internal simulator. It is read-only between Extends, so
// other per-clone passes (the static learning pass) can build on it instead
// of re-levelizing the netlist.
func (gr *Grader) Graph() *netlist.Graph { return gr.graph }

// Extend re-synchronizes the grader with a netlist that grew by appended
// gates and nets since construction (constraint.Unroller.Extend): the shared
// graph and good machine extend in place from the supplied topological order
// (netlist.Graph.Extend documents the order contract), the input and
// flip-flop lists are re-read, per-gate/per-net scratch grows — zero epoch
// stamps are always stale, so appended entries need no initialization — and
// the observation CSRs are rebuilt over the new key ranges. The observation
// points themselves, the universe and the site map are the ones supplied at
// construction: the unroll extension contract keeps all three valid (capture
// probes never move, appended gates are site-free, replica growth is visible
// through the shared SiteMap). This is what lets a depth sweep keep one warm
// grader instead of rebuilding the full CSR and simulator per depth.
func (gr *Grader) Extend(order []netlist.GateID) error {
	if err := gr.good.Extend(order); err != nil {
		return err
	}
	gr.pis = gr.n.PrimaryInputs()
	gr.ffs = gr.n.FlipFlops()
	for len(gr.piVals) < len(gr.pis) {
		gr.piVals = append(gr.piVals, logic.PV{})
	}
	gr.piVals = gr.piVals[:len(gr.pis)]
	for len(gr.ffVals) < len(gr.ffs) {
		gr.ffVals = append(gr.ffVals, logic.PV{})
	}
	gr.ffVals = gr.ffVals[:len(gr.ffs)]
	for len(gr.sched) < len(gr.n.Gates) {
		gr.sched = append(gr.sched, 0)
	}
	for len(gr.chStamp) < len(gr.n.Nets) {
		gr.chStamp = append(gr.chStamp, 0)
	}
	for len(gr.chIdx) < len(gr.n.Nets) {
		gr.chIdx = append(gr.chIdx, 0)
	}
	gr.obsNetStart, gr.obsNetIdx = buildObsCSR(len(gr.n.Nets), gr.obs, func(p ObsPoint) int32 {
		return int32(gr.n.Gates[p.Gate].Ins[p.Pin])
	})
	gr.obsGateStart, gr.obsGateIdx = buildObsCSR(len(gr.n.Gates), gr.obs, func(p ObsPoint) int32 {
		return int32(p.Gate)
	})
	return nil
}

// buildObsCSR groups observation-point indices by an int32 key (net or gate).
func buildObsCSR(keys int, obsPts []ObsPoint, keyOf func(ObsPoint) int32) (start, idx []int32) {
	start = make([]int32, keys+1)
	for _, p := range obsPts {
		start[keyOf(p)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	idx = make([]int32, len(obsPts))
	fill := make([]int32, keys)
	copy(fill, start[:keys])
	for i, p := range obsPts {
		k := keyOf(p)
		idx[fill[k]] = int32(i)
		fill[k]++
	}
	return start, idx
}

// Grade fault-simulates the given faults against the pattern set,
// pattern-parallel (64 patterns per pass), and returns the set of detected
// faults. statePatterns drives flip-flop outputs as pseudo-inputs (aligned
// with Netlist.FlipFlops); nil holds all state at X.
func (gr *Grader) Grade(patterns, statePatterns []Pattern, faults []fault.FID) *fault.Set {
	detected := fault.NewSet(gr.u)
	for base := 0; base < len(patterns); base += logic.WordBits {
		hi := base + logic.WordBits
		if hi > len(patterns) {
			hi = len(patterns)
		}
		gr.gradeBatch(patterns[base:hi], sliceOrNil(statePatterns, base, hi), faults, detected)
	}
	return detected
}

func sliceOrNil(ps []Pattern, lo, hi int) []Pattern {
	if ps == nil {
		return nil
	}
	return ps[lo:hi]
}

// gradeBatch grades one word-sized batch of patterns, adding detections to
// detected and skipping faults already there.
func (gr *Grader) gradeBatch(patterns, statePatterns []Pattern, faults []fault.FID, detected *fault.Set) {
	gr.mPatterns.Add(int64(len(patterns)))
	gr.mWords.Inc()
	for pi := range gr.pis {
		v := logic.PVAllX
		for k := range patterns {
			v = v.Set(k, patterns[k][pi])
		}
		gr.piVals[pi] = v
	}
	for fi := range gr.ffs {
		v := logic.PVAllX
		if statePatterns != nil {
			for k := range statePatterns {
				v = v.Set(k, statePatterns[k][fi])
			}
		}
		gr.ffVals[fi] = v
	}
	// Settle the good machine once; every fault below perturbs it in place
	// and rolls back.
	s := gr.good
	s.ClearState(logic.X)
	for pi, g := range gr.pis {
		s.SetInput(gr.n.Gates[g].Out, gr.piVals[pi])
	}
	for fi, g := range gr.ffs {
		s.SetInput(gr.n.Gates[g].Out, gr.ffVals[fi])
	}
	s.EvalComb()

	for _, fid := range faults {
		if detected.Has(fid) {
			continue
		}
		f := gr.u.FaultOf(fid)
		// Activation screen: a lane can only produce a definite good-vs-faulty
		// difference if the good machine drives some injection site to the
		// definite opposite of the stuck value there. In the remaining lanes
		// the injection replaces v or X with v — an information-order
		// refinement — and every gate function is monotone in Kleene logic, so
		// the faulty machine refines the good one net-by-net and Diff (which
		// needs definite values on both sides) can never fire at an
		// observation point. One word test per site replaces the full cone
		// evaluation for the (frequent) unactivated case.
		if !gr.activated(f) {
			gr.mScreened.Inc()
			continue
		}
		// Inject the fault's whole site set — itself plus any replicas —
		// without materializing an Injection value: this loop runs per live
		// fault per pattern batch, so the single-site path must stay
		// allocation-free.
		s.AddInjection(Injection{Site: f.Site, SA: f.SA, Mask: ^uint64(0)})
		for _, rep := range gr.sm.Replicas(f.Gate) {
			s.AddInjection(Injection{
				Site: fault.Site{Gate: rep, Pin: f.Pin}, SA: f.SA, Mask: ^uint64(0)})
		}
		gr.mFaultEvals.Inc()
		ep := gr.beginEvent()
		gr.settleCone(ep)
		if gr.obsDiff(ep, true) != 0 {
			detected.Add(fid)
		}
		gr.rollback()
	}
}

// activated reports whether any lane of the settled good machine drives any
// of the fault's injection sites to the definite opposite of the stuck value
// — the necessary condition for the injection to be more than a refinement
// of the good values. The site's good read is its net's value (injections
// exist only in the faulty machine), so one PV mask test per site suffices.
func (gr *Grader) activated(f fault.Fault) bool {
	if gr.siteActivated(gr.u.NetOf(f.Site), f.SA) {
		return true
	}
	for _, rep := range gr.sm.Replicas(f.Gate) {
		if gr.siteActivated(gr.u.NetOf(fault.Site{Gate: rep, Pin: f.Pin}), f.SA) {
			return true
		}
	}
	return false
}

// siteActivated: some lane of net's good value is the definite opposite of sa.
func (gr *Grader) siteActivated(net netlist.NetID, sa logic.V) bool {
	v := gr.good.vals[net]
	if sa == logic.Zero {
		return v.L1 != 0
	}
	return v.L0 != 0
}

// beginEvent opens one faulty-machine evaluation: a fresh epoch with an
// empty pending heap and undo log.
func (gr *Grader) beginEvent() uint64 {
	gr.epoch++
	gr.heap = gr.heap[:0]
	gr.undoNets = gr.undoNets[:0]
	gr.undoVals = gr.undoVals[:0]
	return gr.epoch
}

// settleCone re-settles the output cone of the installed injection sites,
// and of any nets already written this epoch, on top of the good values,
// logging every changed net. It returns the number of gates evaluated.
func (gr *Grader) settleCone(ep uint64) int {
	s := gr.good
	// Seed from the injection sites. Source gates (pos < 0) are re-evaluated
	// immediately — they have no combinational inputs, only a refreshed
	// output the injection may override. Everything else is scheduled.
	for _, gid := range s.injGates {
		g := &s.N.Gates[gid]
		if pos := gr.graph.Pos(gid); pos >= 0 {
			gr.schedule(pos, gid, ep)
		} else if g.Out != netlist.InvalidNet {
			gr.writeNet(g.Out, s.refreshSource(gid, g), ep)
		}
	}
	// Drain in topological-position order, so each gate is evaluated at most
	// once with all of its faulty input values already settled.
	evals := 0
	for len(gr.heap) > 0 {
		gid := gr.graph.At(gr.popMin())
		g := &s.N.Gates[gid]
		if g.Out == netlist.InvalidNet {
			continue // KOutput marker: nothing to compute
		}
		evals++
		gr.writeNet(g.Out, s.outVal(gid, s.evalGate(gid, g)), ep)
	}
	return evals
}

// obsDiff returns the lanes in which some observation point of the settled
// faulty machine reads a definite value opposite to the good machine's. With
// first set it returns at the first differing point, so the mask is then
// only known to be non-zero.
func (gr *Grader) obsDiff(ep uint64, first bool) uint64 {
	s := gr.good
	var diff uint64
	// Only two things can flip an observation point: its net changed, or its
	// own gate carries a pin injection (which alters the read with no net
	// change). Scan exactly those.
	for i, net := range gr.undoNets {
		for _, oi := range gr.obsNetIdx[gr.obsNetStart[net]:gr.obsNetStart[net+1]] {
			p := gr.obs[oi]
			diff |= gr.undoVals[i].Diff(s.pinVal(p.Gate, &s.N.Gates[p.Gate], int(p.Pin)))
			if first && diff != 0 {
				return diff
			}
		}
	}
	for _, gid := range s.injGates {
		for _, oi := range gr.obsGateIdx[gr.obsGateStart[gid]:gr.obsGateStart[gid+1]] {
			p := gr.obs[oi]
			net := s.N.Gates[p.Gate].Ins[p.Pin]
			good := s.vals[net]
			if gr.chStamp[net] == ep {
				good = gr.undoVals[gr.chIdx[net]]
			}
			diff |= good.Diff(s.pinVal(p.Gate, &s.N.Gates[p.Gate], int(p.Pin)))
			if first && diff != 0 {
				return diff
			}
		}
	}
	return diff
}

// rollback restores every net written this epoch to its good value and
// removes the injections.
func (gr *Grader) rollback() {
	s := gr.good
	for i, net := range gr.undoNets {
		s.vals[net] = gr.undoVals[i]
	}
	s.ClearInjections()
}

// writeNet commits a recomputed net value: if it changed, every consumer is
// scheduled, and the first change of the net this epoch logs its good value
// for rollback. A combinational net is written at most once per epoch (one
// driver, evaluated at most once), but a flip-flop output can be written
// twice — from divergent sequential state, then by its own output injection
// — and only the first write holds the good value.
func (gr *Grader) writeNet(net netlist.NetID, nv logic.PV, ep uint64) {
	s := gr.good
	if nv == s.vals[net] {
		return
	}
	if gr.chStamp[net] != ep {
		gr.chStamp[net] = ep
		gr.chIdx[net] = int32(len(gr.undoNets))
		gr.undoNets = append(gr.undoNets, net)
		gr.undoVals = append(gr.undoVals, s.vals[net])
	}
	s.vals[net] = nv
	for _, c := range gr.graph.Consumers(net) {
		if pos := gr.graph.Pos(c); pos >= 0 {
			gr.schedule(pos, c, ep)
		}
	}
}

// schedule pushes a gate's order position onto the pending min-heap once per
// epoch.
func (gr *Grader) schedule(pos int32, gid netlist.GateID, ep uint64) {
	if gr.sched[gid] == ep {
		return
	}
	gr.sched[gid] = ep
	h := append(gr.heap, pos)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	gr.heap = h
}

// popMin removes and returns the smallest pending order position.
func (gr *Grader) popMin() int32 {
	h := gr.heap
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h[l] < h[small] {
			small = l
		}
		if r < last && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	gr.heap = h
	return min
}
