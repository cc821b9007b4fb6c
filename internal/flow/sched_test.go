package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"olfui/internal/atpg"
	"olfui/internal/constraint"
	"olfui/internal/fault"
	"olfui/internal/obs"
	"olfui/internal/sim"
	"olfui/internal/testutil"
)

// TestSchedulerInvariance is the scheduler's correctness property: on
// seeded random netlists, the work-stealing campaign classifies identically
// for any worker count — with and without chunked stealing in play, across
// one-shot scenarios AND the swept per-depth class queues. The reference is
// the single-worker run, and every Detected and Untestable verdict it holds
// (the baseline, the one-shot scenario, and every swept depth) is re-proven
// by exhaustive simulation, so the reference is checked by an independent
// oracle rather than by a second scheduling path. The backtrack budget is
// raised far above need so no verdict can fall into the only
// order-sensitive state (Aborted).
func TestSchedulerInvariance(t *testing.T) {
	atpgOpts := atpg.Options{BacktrackLimit: 1 << 20}
	scenarios := []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2), // sweeps under MaxFrames: per-depth class sources
	}
	verifyBoth := func(u *fault.Universe, st *fault.StatusMap, obs []sim.ObsPoint, sm *fault.SiteMap) error {
		if err := testutil.VerifyUntestableSites(u, st, obs, sm); err != nil {
			return err
		}
		return testutil.VerifyDetectedSites(u, st, obs, sm)
	}
	for seed := int64(1); seed <= 3; seed++ {
		nl := testutil.RandomNetlist(seed, testutil.RandOpts{Inputs: 4, Gates: 16, FFs: 2, Outputs: 2})

		depths := 0
		ref, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, Options{
			Workers:   1,
			MaxFrames: 4,
			ATPG:      atpgOpts,
			SweepOnDepth: func(_ string, d SweepDepth) error {
				depths++
				return verifyBoth(d.Universe, d.Status, d.Obs, d.Sites)
			},
		})
		if err != nil {
			t.Fatalf("seed %d: single-worker reference: %v", seed, err)
		}
		requireNoAborts(t, ref, fmt.Sprintf("seed %d reference", seed))
		if depths == 0 {
			t.Fatalf("seed %d: no swept depth was oracle-checked", seed)
		}
		if err := verifyBoth(ref.Universe, ref.Baseline.Status, nil, nil); err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		sr := ref.Scenarios[0]
		if err := verifyBoth(sr.Universe, sr.Outcome.Status, sr.Obs, sr.Sites); err != nil {
			t.Fatalf("seed %d scenario %q: %v", seed, sr.Scenario.Name, err)
		}

		for _, workers := range []int{4, 16} {
			label := fmt.Sprintf("seed %d workers=%d", seed, workers)
			r, err := RunCampaign(context.Background(), nl, fault.NewUniverse(nl), scenarios, Options{
				Workers:   workers,
				MaxFrames: 4,
				ATPG:      atpgOpts,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireNoAborts(t, r, label)
			sameReport(t, label, ref, r)
			if rd, sd := ref.ClassDigest(), r.ClassDigest(); rd != sd {
				t.Fatalf("%s: class digest %s, single-worker reference %s", label, sd, rd)
			}
		}
	}
}

// TestWorkerBudgetNotOversubscribed is the oversubscription regression: a
// campaign with more concurrent providers than workers must never have more
// searches in flight than Options.Workers. The shared pool caps PEAK
// concurrent searches at the budget — the high-water counter is the proof.
func TestWorkerBudgetNotOversubscribed(t *testing.T) {
	n := benchCircuit(t)
	scenarios := []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2),
	}
	reg := obs.New()
	// The baseline, the one-shot scenario and the sweep: three concurrent
	// providers, each handed the full budget of 2.
	_, err := RunCampaign(context.Background(), n, fault.NewUniverse(n), scenarios, Options{
		Workers:   2,
		MaxFrames: 4,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := reg.Snapshot().Counter("sched.workers.peak")
	if peak > 2 {
		t.Errorf("peak concurrent workers %d exceeds the budget of 2", peak)
	}
	if peak < 1 {
		t.Errorf("peak %d — no worker ever acquired a slot", peak)
	}
}

// TestSchedulerCancellation cancels a campaign from inside the adaptive
// sweep: the first delta merged from a per-depth sweep source cancels the
// context while the sweep's depth queues and the other providers still hold
// work and a 2-worker budget makes workers contend on the slot pool. The
// campaign must return the context error, unblock every worker parked on the
// pool, and leave no goroutines behind. TestCampaignCancellation covers the
// one-shot providers.
func TestSchedulerCancellation(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err := RunCampaign(ctx, n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2),
	}, Options{
		Workers:   2,
		MaxFrames: 4,
		Progress: func(e Event) {
			if !e.Done && strings.HasPrefix(e.Source, "sweep:") {
				once.Do(cancel)
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
}

// TestSchedulerTelemetry pins the scheduler's own instrumentation on a
// swept, parallel campaign: chunk leases recorded, the campaign-wide
// queue-depth gauge drained to zero, no lease abandoned, worker busy time
// observed, and the worker high-water within budget. The engine counters'
// exactness is pinned by TestRegistryMatchesStats.
func TestSchedulerTelemetry(t *testing.T) {
	n := benchCircuit(t)
	u := fault.NewUniverse(n)
	reg := obs.New()
	_, err := RunCampaign(context.Background(), n, u, []Scenario{
		{Name: "online-obs", Observe: constraint.ObserveOutputs},
		reachScenario(2),
	}, Options{
		Workers:   3,
		MaxFrames: 4,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("sched.chunks"); got == 0 {
		t.Error("sched.chunks = 0: no queue ever leased a chunk")
	}
	if got := snap.Counter("sched.queue_depth"); got != 0 {
		t.Errorf("sched.queue_depth ends at %d, want 0 (every class handed out or pruned)", got)
	}
	if got := snap.Counter("sched.requeues"); got != 0 {
		t.Errorf("sched.requeues = %d: a completed campaign must not abandon leases", got)
	}
	if peak := snap.Counter("sched.workers.peak"); peak < 1 || peak > 3 {
		t.Errorf("sched.workers.peak = %d, want within [1,3]", peak)
	}
	if got := snap.Counter("sched.workers.active"); got != 0 {
		t.Errorf("sched.workers.active ends at %d, want 0", got)
	}
	if h, ok := snap.Histograms["sched.worker_busy_ns"]; !ok || h.Count == 0 {
		t.Error("sched.worker_busy_ns histogram empty")
	}
}
