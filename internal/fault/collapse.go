package fault

import (
	"olfui/internal/logic"
	"olfui/internal/netlist"
)

// Collapse computes structural fault-equivalence classes over the universe
// using the classical rules:
//
//   - BUF:  input s-a-v  ≡ output s-a-v
//   - NOT:  input s-a-v  ≡ output s-a-v̄
//   - AND:  every input s-a-0 ≡ output s-a-0   (NAND: ≡ output s-a-1)
//   - OR:   every input s-a-1 ≡ output s-a-1   (NOR:  ≡ output s-a-0)
//   - fanout-free nets: stem (driver output pin) s-a-v ≡ the single branch
//     (reader input pin) s-a-v
//
// It returns a union-find parent table mapping each FID to a class
// representative. Collapsed counts are what tools report as the "collapsed
// fault list"; the paper reports uncollapsed totals, so collapsing is
// optional everywhere in the flow.
type Collapse struct {
	parent []int32
}

// NewCollapse builds equivalence classes for u.
func NewCollapse(u *Universe) *Collapse {
	c := &Collapse{parent: make([]int32, u.NumFaults())}
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	n := u.N
	// The netlist may have grown since enumeration — incremental manipulation
	// (constraint.Unroller.Extend) appends gates to an already-enumerated
	// clone. Appended gates are synthetic under the identity contract and
	// contribute no sites, so bounding both the gate walk and the reader
	// check below to the enumerated range is exact, not an approximation.
	for gi := 0; gi < len(u.siteIdx); gi++ {
		g := &n.Gates[gi]
		id := netlist.GateID(gi)
		if u.siteIdx[gi] < 0 {
			continue
		}
		out0 := u.IDOf(Fault{Site{id, OutputPin}, logic.Zero})
		out1 := out0 + 1
		if g.Out == netlist.InvalidNet {
			continue
		}
		switch g.Kind {
		case netlist.KBuf:
			in0, in1 := u.PinFaults(id, 0)
			c.union(in0, out0)
			c.union(in1, out1)
		case netlist.KNot:
			in0, in1 := u.PinFaults(id, 0)
			c.union(in0, out1)
			c.union(in1, out0)
		case netlist.KAnd:
			for p := range g.Ins {
				in0, _ := u.PinFaults(id, int32(p))
				c.union(in0, out0)
			}
		case netlist.KNand:
			for p := range g.Ins {
				in0, _ := u.PinFaults(id, int32(p))
				c.union(in0, out1)
			}
		case netlist.KOr:
			for p := range g.Ins {
				_, in1 := u.PinFaults(id, int32(p))
				c.union(in1, out1)
			}
		case netlist.KNor:
			for p := range g.Ins {
				_, in1 := u.PinFaults(id, int32(p))
				c.union(in1, out0)
			}
		}
		// Fanout-free stem/branch merge.
		fo := n.Nets[g.Out].Fanout
		if len(fo) == 1 {
			rg := fo[0].Gate
			if int(rg) < len(u.siteIdx) && u.siteIdx[rg] >= 0 {
				b0, b1 := u.PinFaults(rg, fo[0].In)
				if b0 != InvalidFID {
					c.union(out0, b0)
					c.union(out1, b1)
				}
			}
		}
	}
	return c
}

// Rep returns the class representative of id.
func (c *Collapse) Rep(id FID) FID { return FID(c.find(int32(id))) }

// NumClasses returns the number of equivalence classes (the collapsed fault
// count).
func (c *Collapse) NumClasses() int {
	n := 0
	for i := range c.parent {
		if c.find(int32(i)) == int32(i) {
			n++
		}
	}
	return n
}

// Reps returns the class representatives in ascending FID order — the
// collapsed class list GenerateAll targets by default. It is never nil, so an
// empty universe yields an explicit empty list.
func (c *Collapse) Reps() []FID {
	reps := []FID{}
	for i := range c.parent {
		if c.find(int32(i)) == int32(i) {
			reps = append(reps, FID(i))
		}
	}
	return reps
}

// SameClass reports whether two faults are structurally equivalent.
func (c *Collapse) SameClass(a, b FID) bool { return c.Rep(a) == c.Rep(b) }

func (c *Collapse) find(i int32) int32 {
	for c.parent[i] != i {
		c.parent[i] = c.parent[c.parent[i]]
		i = c.parent[i]
	}
	return i
}

func (c *Collapse) union(a, b FID) {
	ra, rb := c.find(int32(a)), c.find(int32(b))
	if ra != rb {
		c.parent[ra] = rb
	}
}
