package main

import (
	"fmt"
	"math/rand"

	"olfui/internal/flow"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// missionTies are the benchmark design's test and debug pins, held at 0 in
// mission mode (bench.Scenarios ties them the same way).
var missionTies = []string{"scan_en", "scan_in", "debug_en"}

// opField is the design's one-hot operation select.
var opField = []string{"op0", "op1", "op2", "op3"}

// missionStimuli generates sets seeded mission-legal stimuli of cycles cycles
// each for a bench.Build netlist: test and debug pins held at 0, exactly one
// op line high, reset (rstn low) in cycle 0 only, and random operands and
// carry-in. Every row is a legal mission cycle, so grading them can never
// detect a fault a mission scenario proved untestable.
func missionStimuli(n *netlist.Netlist, seed int64, sets, cycles int) ([]flow.PatternSet, error) {
	var inputs []netlist.NetID
	for _, g := range n.PrimaryInputs() {
		inputs = append(inputs, n.Gates[g].Out)
	}
	col := make(map[string]int, len(inputs))
	for i, net := range inputs {
		col[n.Nets[net].Name] = i
	}
	var ops []int
	for _, name := range opField {
		i, ok := col[name]
		if !ok {
			return nil, fmt.Errorf("stimulus: design has no input %q", name)
		}
		ops = append(ops, i)
	}
	fixed := map[int]bool{}
	for _, name := range append(append([]string{"rstn"}, missionTies...), opField...) {
		i, ok := col[name]
		if !ok {
			return nil, fmt.Errorf("stimulus: design has no input %q", name)
		}
		fixed[i] = true
	}
	rstn := col["rstn"]

	rng := rand.New(rand.NewSource(seed))
	out := make([]flow.PatternSet, sets)
	for s := range out {
		rows := make([][]logic.V, cycles)
		for c := range rows {
			row := make([]logic.V, len(inputs)) // logic.Zero is the zero value
			for i := range row {
				if !fixed[i] && rng.Intn(2) == 1 {
					row[i] = logic.One
				}
			}
			row[ops[rng.Intn(len(ops))]] = logic.One
			if c > 0 {
				row[rstn] = logic.One
			}
			rows[c] = row
		}
		out[s] = flow.PatternSet{
			Name: fmt.Sprintf("mission%d", s),
			Stim: sim.Stimulus{Inputs: inputs, Cycles: rows},
		}
	}
	return out, nil
}
