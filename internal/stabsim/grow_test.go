package stabsim

import (
	"reflect"
	"testing"
)

// growSample appends a small circuit exercising every payload kind, a
// fused noise stack and both annotations.
func growSample(c *Circuit) {
	c.H(0, 1, 2).CX(0, 1).Depolarize2(0.01, 0, 1)
	c.XError(0.1, 2).ZError(0.2, 2) // fused into one PauliChannel1
	c.PauliChannel1(0.01, 0.02, 0.03, 0, 1, 2)
	c.MR(0.05, 0, 1).Detector(-1).M(2).Observable(0, -1, -2)
}

func TestGrowKeepsOpsAndNeverShrinks(t *testing.T) {
	c := NewCircuit(3)
	growSample(c)
	before := append([]Op(nil), c.Ops...)
	n := len(c.Ops)

	c.Grow(100)
	if len(c.Ops) != n || cap(c.Ops) != n+100 {
		t.Fatalf("after Grow(100): len %d cap %d, want len %d cap %d", len(c.Ops), cap(c.Ops), n, n+100)
	}
	if !reflect.DeepEqual(c.Ops, before) {
		t.Fatal("Grow changed the existing ops")
	}
	for i := range before {
		if len(before[i].Targets) > 0 && &c.Ops[i].Targets[0] != &before[i].Targets[0] {
			t.Fatalf("op %d: Grow moved its target payload", i)
		}
	}

	base := &c.Ops[:1][0]
	for _, k := range []int{1, 100, 0, -5} {
		c.Grow(k)
		if cap(c.Ops) != n+100 || &c.Ops[:1][0] != base {
			t.Fatalf("Grow(%d) with room to spare reallocated (cap %d)", k, cap(c.Ops))
		}
	}

	empty := NewCircuit(1)
	empty.Grow(0).Grow(-1)
	if empty.Ops != nil {
		t.Fatal("Grow(n <= 0) on an empty circuit allocated")
	}
}

// TestGrowBuildsSameCircuit checks that presizing changes nothing but the
// op list's capacity, and that appends within the grown room never
// reallocate.
func TestGrowBuildsSameCircuit(t *testing.T) {
	plain := NewCircuit(3)
	growSample(plain)
	grown := NewCircuit(3)
	grown.Grow(len(plain.Ops))
	base := &grown.Ops[:1][0]
	growSample(grown)
	if &grown.Ops[0] != base || cap(grown.Ops) != len(grown.Ops) {
		t.Fatalf("appends within the grown room reallocated (len %d cap %d)", len(grown.Ops), cap(grown.Ops))
	}
	if !reflect.DeepEqual(plain, grown) {
		t.Fatalf("circuits differ:\n%+v\n%+v", plain, grown)
	}
}
