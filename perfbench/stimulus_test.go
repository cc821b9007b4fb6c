package main

import (
	"reflect"
	"testing"

	"olfui/internal/bench"
	"olfui/internal/logic"
)

// TestMissionStimuliLegal checks every generated row against the mission
// constraints: test and debug pins held at 0, exactly one op line high, reset
// asserted in cycle 0 only, and every input driven to a known value.
func TestMissionStimuliLegal(t *testing.T) {
	n := bench.Build(8)
	sets, err := missionStimuli(n, 7, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("%d sets, want 3", len(sets))
	}
	pis := n.PrimaryInputs()
	for _, set := range sets {
		if len(set.Stim.Inputs) != len(pis) {
			t.Fatalf("%s drives %d inputs, design has %d", set.Name, len(set.Stim.Inputs), len(pis))
		}
		col := map[string]int{}
		for i, net := range set.Stim.Inputs {
			col[n.Nets[net].Name] = i
		}
		if len(set.Stim.Cycles) != 200 {
			t.Fatalf("%s has %d cycles, want 200", set.Name, len(set.Stim.Cycles))
		}
		for c, row := range set.Stim.Cycles {
			for i, v := range row {
				if !v.IsKnown() {
					t.Fatalf("%s cycle %d input %d is %v", set.Name, c, i, v)
				}
			}
			for _, name := range missionTies {
				if row[col[name]] != logic.Zero {
					t.Fatalf("%s cycle %d: tied pin %s = %v", set.Name, c, name, row[col[name]])
				}
			}
			high := 0
			for _, name := range opField {
				if row[col[name]] == logic.One {
					high++
				}
			}
			if high != 1 {
				t.Fatalf("%s cycle %d: %d op lines high, want exactly 1", set.Name, c, high)
			}
			if want := logic.FromBool(c > 0); row[col["rstn"]] != want {
				t.Fatalf("%s cycle %d: rstn = %v, want %v", set.Name, c, row[col["rstn"]], want)
			}
		}
	}
}

// TestMissionStimuliSeeded checks that the seed alone fixes the stimuli.
func TestMissionStimuliSeeded(t *testing.T) {
	n := bench.Build(4)
	a, _ := missionStimuli(n, 11, 2, 50)
	b, _ := missionStimuli(n, 11, 2, 50)
	c, _ := missionStimuli(n, 12, 2, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different stimuli")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical stimuli")
	}
}
