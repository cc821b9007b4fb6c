package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"olfui/internal/bench"
	"olfui/internal/fault"
	"olfui/internal/flow"
	"olfui/internal/journal"
	"olfui/internal/netlist"
	"olfui/internal/obs"
)

// counts is a campaign's classification over the original fault universe:
// the deliverable the correctness gate pins per workload.
type counts struct {
	FullScanTestable, FuncUntestable, Unresolved int
}

// workload is one campaign configuration. Every workload runs at the default
// backtrack limit (atpg.Options left zero) under one campaign worker budget.
type workload struct {
	name  string
	width int
	// scenarios is how many of bench.Scenarios(2) run, in order: online,
	// mission, mission-reach.
	scenarios int
	maxFrames int  // depth-sweep budget; 0 = no sweep
	journaled bool // write-ahead journal with default (SyncAlways) options
	// stimuli is the number of seeded mission stimuli graded by the pattern
	// provider, each stimulusCycles long; 0 = no pattern import.
	stimuli int
	// want is the classification every run must reproduce.
	want counts
}

const stimulusCycles = 2000

var workloads = []workload{
	{
		name:      "mission-sweep",
		width:     8,
		scenarios: 3,
		maxFrames: 6,
		want:      counts{FullScanTestable: 1047, FuncUntestable: 175, Unresolved: 0},
	},
	{
		name:      "pattern-import",
		width:     32,
		stimuli:   8,
		journaled: true,
		want:      counts{FullScanTestable: 4733, FuncUntestable: 89, Unresolved: 0},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// workers is the campaign worker budget: two, or fewer on a smaller host.
func workers() int {
	return min(2, runtime.NumCPU())
}

// instance is the state one campaign starts from: the set-up the benchmark
// times as setup_s.
type instance struct {
	n    *netlist.Netlist
	u    *fault.Universe
	j    *journal.Journal
	jdir string
}

// setup builds the design, enumerates its fault universe and, for journaled
// workloads, opens a fresh journal under dir, recording a child span of
// parent around each step (a nil parent records nothing).
func (w workload) setup(dir string, parent *obs.Span) (*instance, error) {
	sp := parent.Child("netlist.build")
	in := &instance{n: bench.Build(w.width)}
	sp.End()
	sp = parent.Child("fault.universe")
	in.u = fault.NewUniverse(in.n)
	sp.End()
	if w.journaled {
		var err error
		if in.jdir, err = os.MkdirTemp(dir, "journal-"); err != nil {
			return nil, err
		}
		sp = parent.Child("journal.open")
		in.j, err = journal.Open(in.jdir, journal.Options{})
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// closeJournal closes the instance's journal, leaving its files for
// inspection; a no-op for journal-less workloads.
func (in *instance) closeJournal() error {
	if in.j == nil {
		return nil
	}
	err := in.j.Close()
	in.j = nil
	return err
}

// release closes and deletes the instance's journal.
func (in *instance) release() error {
	err := in.closeJournal()
	if in.jdir != "" {
		if rerr := os.RemoveAll(in.jdir); err == nil {
			err = rerr
		}
	}
	return err
}

// options is the campaign configuration: default ATPG options, tracing off
// unless the caller sets Metrics.
func (w workload) options(in *instance, pats []flow.PatternSet) flow.Options {
	return flow.Options{
		Workers:   workers(),
		MaxFrames: w.maxFrames,
		Patterns:  pats,
		Journal:   in.j,
	}
}

// walBytes sums the sizes of the journal's wal files.
func walBytes(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
