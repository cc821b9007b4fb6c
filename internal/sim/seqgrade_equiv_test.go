package sim_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// referenceGradeSeq is the definitional sequential grader GradeSeq must
// match: for every 63-fault batch it builds a fresh simulator, injects each
// fault (with its replicas) into its own lane, keeps slot 63 as the good
// machine, and runs a full levelized pass for every cycle of the stimulus,
// comparing every observation point. No events, no divergent state, no
// dropping — just the semantics. It returns, per fault of faults, the cycle
// it was first detected in, or -1.
func referenceGradeSeq(t *testing.T, n *netlist.Netlist, u *fault.Universe, stim sim.Stimulus,
	observe []sim.ObsPoint, faults []fault.FID, sm *fault.SiteMap) []int {
	t.Helper()
	const goodSlot = logic.WordBits - 1
	const lanes = logic.WordBits - 1
	first := make([]int, len(faults))
	for base := 0; base < len(faults); base += lanes {
		batch := faults[base:min(base+lanes, len(faults))]
		s, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		for lane, fid := range batch {
			f := u.FaultOf(fid)
			s.AddInjection(sim.Injection{Site: f.Site, SA: f.SA, Mask: 1 << uint(lane)})
			for _, rep := range sm.Replicas(f.Gate) {
				s.AddInjection(sim.Injection{
					Site: fault.Site{Gate: rep, Pin: f.Pin}, SA: f.SA, Mask: 1 << uint(lane)})
			}
		}
		s.ClearState(logic.X)
		for lane := range batch {
			first[base+lane] = -1
		}
		for c, cyc := range stim.Cycles {
			for i, net := range stim.Inputs {
				s.SetInputV(net, cyc[i])
			}
			s.EvalComb()
			for _, p := range observe {
				v := s.ObsVal(p)
				var diffMask uint64
				switch v.Get(goodSlot) {
				case logic.One:
					diffMask = v.L0
				case logic.Zero:
					diffMask = v.L1
				default:
					continue
				}
				for lane := range batch {
					if diffMask&(1<<uint(lane)) != 0 && first[base+lane] < 0 {
						first[base+lane] = c
					}
				}
			}
			s.CommitState()
		}
	}
	return first
}

// seqCase is one equivalence case: a circuit (possibly a time-expanded
// clone with its site map), an observation set and a stimulus.
type seqCase struct {
	name    string
	n       *netlist.Netlist
	u       *fault.Universe
	sm      *fault.SiteMap
	observe []sim.ObsPoint
	stim    sim.Stimulus
}

// randomStim drives every primary input with a seeded mix of 0, 1 and X.
func randomStim(n *netlist.Netlist, rng *rand.Rand, cycles int) sim.Stimulus {
	var st sim.Stimulus
	for _, g := range n.PrimaryInputs() {
		st.Inputs = append(st.Inputs, n.Gates[g].Out)
	}
	vals := []logic.V{logic.Zero, logic.One, logic.Zero, logic.One, logic.X}
	for c := 0; c < cycles; c++ {
		row := make([]logic.V, len(st.Inputs))
		for i := range row {
			row[i] = vals[rng.Intn(len(vals))]
		}
		st.Cycles = append(st.Cycles, row)
	}
	return st
}

func seqCases(t *testing.T) []seqCase {
	t.Helper()
	var cases []seqCase
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := testutil.RandomNetlist(seed, testutil.RandOpts{
			Inputs: 4, Gates: 40, FFs: 6, ResetFFs: 3, Ties: 2, Outputs: 3})
		u := fault.NewUniverse(n)
		stim := randomStim(n, rng, 40)
		cases = append(cases,
			seqCase{fmt.Sprintf("seed%d/outputs", seed), n, u, nil, sim.OutputObsPoints(n), stim},
			seqCase{fmt.Sprintf("seed%d/fullscan", seed), n, u, nil, sim.CombObsPoints(n), stim})

		clone := n.Clone()
		sm, err := constraint.ApplyMapped(clone, constraint.Unroll{Frames: 2})
		if err != nil {
			t.Fatal(err)
		}
		cu := fault.NewUniverse(clone)
		cstim := randomStim(clone, rng, 12)
		cases = append(cases,
			seqCase{fmt.Sprintf("seed%d/unroll2", seed), clone, cu, sm,
				constraint.ObserveOutputsAndCaptures(clone), cstim},
			seqCase{fmt.Sprintf("seed%d/unroll2-fullscan", seed), clone, cu, sm,
				sim.CombObsPoints(clone), cstim})
	}
	return cases
}

// TestGradeSeqMatchesReference is the differential sequential grader's
// equivalence pin: on seeded random netlists with DFF and DFFR state, ties,
// X inputs and the initial X state, under output-only and full-scan
// observation, with and without an Unroll site map, GradeSeq detects exactly
// the faults the per-batch full-evaluation reference detects — for the
// whole fault list (several words, partial last word) and for a shuffled
// subset. The test also checks that the cases really exercise flip-flop D,
// RSTN and Q pin injections and words whose lanes are caught in different
// cycles.
func TestGradeSeqMatchesReference(t *testing.T) {
	var ffPins [3]int // detected faults on flip-flop D, RSTN and Q pins
	staggered := 0    // words whose lanes were first caught in different cycles
	const lanes = logic.WordBits - 1
	for _, tc := range seqCases(t) {
		all := make([]fault.FID, tc.u.NumFaults())
		for id := range all {
			all[id] = fault.FID(id)
		}
		if len(all) <= lanes || len(all)%lanes == 0 {
			t.Fatalf("%s: %d faults do not span several words with a partial last word",
				tc.name, len(all))
		}
		subset := append([]fault.FID(nil), all...)
		rand.New(rand.NewSource(int64(len(all)))).Shuffle(len(subset), func(i, j int) {
			subset[i], subset[j] = subset[j], subset[i]
		})
		subset = subset[:len(subset)*2/3]

		for _, faults := range [][]fault.FID{all, subset} {
			got, err := sim.GradeSeq(context.Background(), tc.n, tc.u, tc.stim, tc.observe, faults, tc.sm, nil)
			if err != nil {
				t.Fatal(err)
			}
			first := referenceGradeSeq(t, tc.n, tc.u, tc.stim, tc.observe, faults, tc.sm)
			want := 0
			for i, fid := range faults {
				if first[i] >= 0 {
					want++
				}
				if got.Has(fid) != (first[i] >= 0) {
					t.Errorf("%s: %s: GradeSeq says %v, reference says %v",
						tc.name, tc.u.Describe(tc.u.FaultOf(fid)), got.Has(fid), first[i] >= 0)
				}
			}
			if got.Count() != want {
				t.Errorf("%s: GradeSeq detected %d faults, reference %d", tc.name, got.Count(), want)
			}

			for i, fid := range faults {
				f := tc.u.FaultOf(fid)
				if first[i] < 0 || !tc.n.Gates[f.Gate].Kind.IsState() {
					continue
				}
				switch f.Pin {
				case netlist.DffD:
					ffPins[0]++
				case netlist.DffRstN:
					ffPins[1]++
				case fault.OutputPin:
					ffPins[2]++
				}
			}
			for base := 0; base < len(faults); base += lanes {
				cycle := -1
				for _, c := range first[base:min(base+lanes, len(faults))] {
					if c < 0 {
						continue
					}
					if cycle >= 0 && c != cycle {
						staggered++
						break
					}
					cycle = c
				}
			}
		}
	}
	if ffPins[0] == 0 || ffPins[1] == 0 || ffPins[2] == 0 {
		t.Errorf("detected flip-flop pin faults D/RSTN/Q = %v: every pin kind must be exercised", ffPins)
	}
	if staggered == 0 {
		t.Error("no word had lanes caught in different cycles")
	}
}
