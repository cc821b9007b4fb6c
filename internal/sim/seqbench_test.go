package sim_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/logic"
	"olfui/internal/netlist"
	"olfui/internal/sim"
)

// missionStim builds one seeded mission-legal stimulus for a bench.Build
// netlist: the test and debug pins held at 0, exactly one op line high,
// rstn low in cycle 0 only, random operands and carry-in.
func missionStim(tb testing.TB, n *netlist.Netlist, seed int64, cycles int) sim.Stimulus {
	tb.Helper()
	var st sim.Stimulus
	col := map[string]int{}
	for i, g := range n.PrimaryInputs() {
		net := n.Gates[g].Out
		st.Inputs = append(st.Inputs, net)
		col[n.Nets[net].Name] = i
	}
	fixed := map[int]bool{}
	var ops []int
	for _, name := range []string{"rstn", "scan_en", "scan_in", "debug_en", "op0", "op1", "op2", "op3"} {
		i, ok := col[name]
		if !ok {
			tb.Fatalf("design has no input %q", name)
		}
		fixed[i] = true
		if strings.HasPrefix(name, "op") {
			ops = append(ops, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cycles; c++ {
		row := make([]logic.V, len(st.Inputs)) // logic.Zero is the zero value
		for i := range row {
			if !fixed[i] && rng.Intn(2) == 1 {
				row[i] = logic.One
			}
		}
		row[ops[rng.Intn(len(ops))]] = logic.One
		if c > 0 {
			row[col["rstn"]] = logic.One
		}
		st.Cycles = append(st.Cycles, row)
	}
	return st
}

// BenchmarkGradeSeqBench32 measures sequential grading of the whole
// bench.Build(32) fault universe against one 2,000-cycle mission stimulus
// under output-only observation — the functional-pattern grading path.
func BenchmarkGradeSeqBench32(b *testing.B) {
	n := bench.Build(32)
	u := fault.NewUniverse(n)
	stim := missionStim(b, n, 1, 2000)
	faults := make([]fault.FID, u.NumFaults())
	for id := range faults {
		faults[id] = fault.FID(id)
	}
	obs := sim.OutputObsPoints(n)
	b.ReportMetric(float64(len(faults)), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := sim.GradeSeq(context.Background(), n, u, stim, obs, faults, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(det.Count()), "detected")
	}
}
