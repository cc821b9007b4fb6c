package fault

import (
	"testing"

	"olfui/internal/logic"
	"olfui/internal/netlist"
)

func TestSiteMapNilIsIdentity(t *testing.T) {
	var sm *SiteMap
	if !sm.Empty() || sm.Len() != 0 {
		t.Fatalf("nil map: Empty=%v Len=%d", sm.Empty(), sm.Len())
	}
	sm.AddReplica(1, 2) // must not panic
	if got := sm.Replicas(1); got != nil {
		t.Fatalf("nil map replicas = %v", got)
	}
	f := Fault{Site: Site{Gate: 3, Pin: OutputPin}, SA: logic.One}
	inj := sm.Expand(f)
	if len(inj.Sites) != 1 || inj.Sites[0] != f.Site || inj.SA != logic.One {
		t.Fatalf("nil map expansion = %+v", inj)
	}
	if inj.Primary() != f.Site {
		t.Fatalf("primary site = %v", inj.Primary())
	}
}

func TestSiteMapExpand(t *testing.T) {
	sm := NewSiteMap()
	orig := netlist.GateID(4)
	sm.AddReplica(orig, 10)
	sm.AddReplica(orig, 17)
	sm.AddReplica(9, 11)
	if sm.Empty() || sm.Len() != 3 {
		t.Fatalf("Empty=%v Len=%d, want false/3", sm.Empty(), sm.Len())
	}

	f := Fault{Site: Site{Gate: orig, Pin: 1}, SA: logic.Zero}
	inj := sm.Expand(f)
	want := []Site{{orig, 1}, {10, 1}, {17, 1}}
	if len(inj.Sites) != len(want) {
		t.Fatalf("expanded to %d sites, want %d", len(inj.Sites), len(want))
	}
	for i, s := range want {
		if inj.Sites[i] != s {
			t.Errorf("site %d = %v, want %v", i, inj.Sites[i], s)
		}
	}
	if inj.Primary() != f.Site {
		t.Errorf("primary = %v, want the original site first", inj.Primary())
	}

	// Unreplicated gates expand to themselves.
	single := sm.Expand(Fault{Site: Site{Gate: 2, Pin: OutputPin}, SA: logic.One})
	if len(single.Sites) != 1 || single.Sites[0].Gate != 2 {
		t.Fatalf("unreplicated expansion = %+v", single)
	}
}

func TestFaultInjection(t *testing.T) {
	f := Fault{Site: Site{Gate: 7, Pin: 2}, SA: logic.One}
	inj := f.Injection()
	if len(inj.Sites) != 1 || inj.Sites[0] != f.Site || inj.SA != f.SA {
		t.Fatalf("single-site injection = %+v", inj)
	}
}

// TestSiteMapExtensionAppendsPerFrame pins the extension semantics the depth
// sweep relies on: replicas recorded after an initial build (one Extend's
// worth per new frame) append AFTER the existing ones, preserving frame
// order in every expansion, and earlier expansions are not retroactively
// affected by later growth (ExpandSite snapshots the replica list).
func TestSiteMapExtensionAppendsPerFrame(t *testing.T) {
	sm := NewSiteMap()
	orig := netlist.GateID(3)
	// Initial 3-frame build: two earlier frames' replicas.
	sm.AddReplica(orig, 10)
	sm.AddReplica(orig, 20)
	f := Fault{Site: Site{Gate: orig, Pin: 0}, SA: logic.Zero}
	before := sm.Expand(f)

	// Extend to 4 frames: the new frame's replica appends after the rest.
	sm.AddReplica(orig, 30)
	if got := len(before.Sites); got != 3 {
		t.Fatalf("pre-extension expansion grew to %d sites", got)
	}
	after := sm.Expand(f)
	wantGates := []netlist.GateID{orig, 10, 20, 30}
	if len(after.Sites) != len(wantGates) {
		t.Fatalf("expanded to %d sites, want %d", len(after.Sites), len(wantGates))
	}
	for i, g := range wantGates {
		if after.Sites[i].Gate != g || after.Sites[i].Pin != 0 {
			t.Errorf("site %d = %+v, want gate %d pin 0", i, after.Sites[i], g)
		}
	}
	if sm.Len() != 3 {
		t.Errorf("Len = %d, want 3", sm.Len())
	}

	// Nil-map identity is preserved under "extension" too: AddReplica stays
	// a no-op and expansion stays single-site.
	var nilMap *SiteMap
	nilMap.AddReplica(orig, 40)
	if inj := nilMap.Expand(f); len(inj.Sites) != 1 || inj.Sites[0] != f.Site {
		t.Fatalf("nil map expansion after AddReplica = %+v", inj)
	}
}
