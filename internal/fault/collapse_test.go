package fault

import (
	"testing"

	"olfui/internal/logic"
	"olfui/internal/netlist"
)

func TestCollapseNandNorPolarity(t *testing.T) {
	n := netlist.New("nn")
	a, b, c, d := n.Input("a"), n.Input("b"), n.Input("c"), n.Input("d")
	y := n.Nand("y", a, b)
	z := n.Nor("z", c, d)
	n.OutputPort("p1", y)
	n.OutputPort("p2", z)
	u := NewUniverse(n)
	cl := NewCollapse(u)

	yG, _ := n.GateByName("y")
	zG, _ := n.GateByName("z")
	// NAND: input s-a-0 ≡ output s-a-1.
	y00, y01 := u.PinFaults(yG, 0)
	yo0, yo1 := u.PinFaults(yG, OutputPin)
	if !cl.SameClass(y00, yo1) {
		t.Error("NAND input s-a-0 must merge with output s-a-1")
	}
	if cl.SameClass(y01, yo0) || cl.SameClass(y00, yo0) {
		t.Error("NAND merged a wrong polarity pair")
	}
	// NOR: input s-a-1 ≡ output s-a-0.
	_, z01 := u.PinFaults(zG, 0)
	zo0, zo1 := u.PinFaults(zG, OutputPin)
	if !cl.SameClass(z01, zo0) {
		t.Error("NOR input s-a-1 must merge with output s-a-0")
	}
	if cl.SameClass(z01, zo1) {
		t.Error("NOR merged a wrong polarity pair")
	}
}

func TestCollapseFanoutFreeStemBranch(t *testing.T) {
	// in -> buf u1 -> AND u2 (with b). u1's output net is fanout-free, so
	// its output faults merge with u2's input-pin faults; the AND rule then
	// chains the s-a-0 class through to u2's output.
	n := netlist.New("ffree")
	in := n.Input("in")
	b := n.Input("b")
	w := n.Buf("u1", in)
	y := n.And("u2", w, b)
	n.OutputPort("po", y)
	u := NewUniverse(n)
	cl := NewCollapse(u)

	u1, _ := n.GateByName("u1")
	u2, _ := n.GateByName("u2")
	s0, s1 := u.PinFaults(u1, OutputPin)
	b0, b1 := u.PinFaults(u2, 0)
	if !cl.SameClass(s0, b0) || !cl.SameClass(s1, b1) {
		t.Error("fanout-free stem faults must merge with the single branch")
	}
	o0, _ := u.PinFaults(u2, OutputPin)
	if !cl.SameClass(s0, o0) {
		t.Error("stem s-a-0 must chain through the AND rule to the output")
	}
}

func TestCollapseFanoutStemNotMerged(t *testing.T) {
	// A stem with two branches must keep its output faults distinct from
	// both branch input-pin faults: reconvergence can make them
	// non-equivalent, so structural collapsing must not merge them.
	n := netlist.New("stem")
	in := n.Input("in")
	w := n.Buf("u1", in)
	y1 := n.Buf("u2", w)
	y2 := n.Buf("u3", w)
	n.OutputPort("p1", y1)
	n.OutputPort("p2", y2)
	u := NewUniverse(n)
	cl := NewCollapse(u)

	u1, _ := n.GateByName("u1")
	u2, _ := n.GateByName("u2")
	u3, _ := n.GateByName("u3")
	s0, _ := u.PinFaults(u1, OutputPin)
	b20, _ := u.PinFaults(u2, 0)
	b30, _ := u.PinFaults(u3, 0)
	if cl.SameClass(s0, b20) || cl.SameClass(s0, b30) {
		t.Error("fanout stem must not merge with its branches")
	}
	if cl.SameClass(b20, b30) {
		t.Error("sibling branches must not merge with each other")
	}
}

func TestCollapseClassCountHandCounted(t *testing.T) {
	// y = AND(a, b) -> PO. Sites: a out, b out, y.A0, y.A1, y.Z, po.A0 =
	// 6 sites, 12 faults. Merges: a-out/y.A0 and b-out/y.A1 (fanout-free,
	// both polarities), y.Z/po.A0 (fanout-free, both polarities), y.A0
	// s-a-0 ≡ y.A1 s-a-0 ≡ y.Z s-a-0 (AND rule). Hand count:
	//   {a0,yA0-0,yA1-0,b0,yZ0,po0} 1 class, {a1,yA0-1} , {b1,yA1-1},
	//   {yZ1,po1} — total 4.
	n := netlist.New("hand")
	a := n.Input("a")
	b := n.Input("b")
	y := n.And("y", a, b)
	n.OutputPort("po", y)
	u := NewUniverse(n)
	cl := NewCollapse(u)
	if got := u.NumFaults(); got != 12 {
		t.Fatalf("universe = %d faults, want 12", got)
	}
	if got := cl.NumClasses(); got != 4 {
		t.Errorf("collapsed classes = %d, want 4", got)
	}
	// Reps lists exactly those classes, each by its own representative, in
	// ascending FID order.
	reps := cl.Reps()
	if len(reps) != 4 {
		t.Fatalf("Reps = %v, want 4 representatives", reps)
	}
	for i, fid := range reps {
		if cl.Rep(fid) != fid {
			t.Errorf("Reps[%d] = %d is not its class representative", i, fid)
		}
		if i > 0 && reps[i-1] >= fid {
			t.Errorf("Reps not ascending: %v", reps)
		}
	}
	if empty := NewCollapse(NewUniverse(netlist.New("empty"))).Reps(); empty == nil || len(empty) != 0 {
		t.Errorf("empty universe Reps = %#v, want a non-nil empty list", empty)
	}
}

func TestCollapseClassCountConsensus(t *testing.T) {
	// The consensus circuit y = a·b + ā·c + b·c used by the ATPG tests:
	// check the collapsed count is stable (regression anchor) and that
	// every class representative is a member of its own class.
	n := netlist.New("consensus")
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	na := n.Not("na", a)
	t1 := n.And("t1", a, b)
	t2 := n.And("t2", na, c)
	t3 := n.And("t3", b, c)
	y := n.Or("y", t1, t2, t3)
	n.OutputPort("po", y)
	u := NewUniverse(n)
	cl := NewCollapse(u)

	// Hand count. Sites: 3 PI outs, na.{A0,Z}, t1..t3.{A0,A1,Z}, y.{A0,A1,A2,Z},
	// po.A0 = 3+2+9+4+1 = 19 sites, 38 faults.
	if got := u.NumFaults(); got != 38 {
		t.Fatalf("universe = %d faults, want 38", got)
	}
	// Fanout-free merges (both polarities): na out with t2.A0; t1.Z/y.A0,
	// t2.Z/y.A1, t3.Z/y.A2, y.Z/po.A0 — 5 site-pairs, 10 fault merges.
	// Gate-rule merges: na (2: A0-0≡Z-1, A0-1≡Z-0, but A0 pairs already
	// merged... count classes instead): NOT na merges in0/out1 and in1/out0
	// (2 merges); each AND merges its two input s-a-0 with output s-a-0
	// (2 merges each = 6); OR merges three input s-a-1 with output s-a-1
	// (3 merges). All distinct merges: 10 + 2 + 6 + 3 = 21?? Some overlap:
	// na.A0 faults already merged into t2.A0 via... na.A0 is an input pin of
	// gate na; the fanout-free merge was na.Z with t2.A0. No overlap. But
	// a-stem fans out to t1 and na (2 branches): no stem merge. b fans out
	// to t1,t3; c to t2,t3: no merges there. So classes = 38 - 21 = 17.
	if got := cl.NumClasses(); got != 17 {
		t.Errorf("collapsed classes = %d, want 17", got)
	}
	for i := 0; i < u.NumFaults(); i++ {
		if cl.Rep(cl.Rep(FID(i))) != cl.Rep(FID(i)) {
			t.Fatalf("Rep not idempotent at %d", i)
		}
	}
}

func TestStatusMapBasics(t *testing.T) {
	n := netlist.New("sm")
	a := n.Input("a")
	y := n.Not("y", a)
	n.OutputPort("po", y)
	u := NewUniverse(n)
	m := NewStatusMap(u)
	if m.Len() != u.NumFaults() {
		t.Fatalf("len = %d, want %d", m.Len(), u.NumFaults())
	}
	for i := 0; i < m.Len(); i++ {
		if m.Get(FID(i)) != Undetected {
			t.Fatal("fresh map must be all-undetected")
		}
	}
	m.Set(0, Detected)
	m.Set(1, Untestable)
	m.Set(2, Aborted)
	c := m.Counts()
	if c[Detected] != 1 || c[Untestable] != 1 || c[Aborted] != 1 || c[Undetected] != m.Len()-3 {
		t.Errorf("counts = %v", c)
	}
	if got := m.FaultsWith(Untestable); len(got) != 1 || got[0] != 1 {
		t.Errorf("FaultsWith(Untestable) = %v", got)
	}
}

func TestStatusMapSpreadClasses(t *testing.T) {
	// Mark only class representatives, spread, and check every member
	// inherited its representative's status.
	n := netlist.New("spread")
	a := n.Input("a")
	cur := a
	for i := 0; i < 3; i++ {
		cur = n.Buf("", cur)
	}
	n.OutputPort("po", cur)
	u := NewUniverse(n)
	cl := NewCollapse(u)
	m := NewStatusMap(u)
	for i := 0; i < u.NumFaults(); i++ {
		if cl.Rep(FID(i)) == FID(i) {
			st := Detected
			if u.FaultOf(FID(i)).SA == logic.One {
				st = Untestable
			}
			m.Set(FID(i), st)
		}
	}
	m.SpreadClasses(cl)
	for i := 0; i < u.NumFaults(); i++ {
		want := m.Get(cl.Rep(FID(i)))
		if m.Get(FID(i)) != want {
			t.Fatalf("fault %d: status %v != representative's %v", i, m.Get(FID(i)), want)
		}
	}
}
