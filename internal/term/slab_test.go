package term

import "testing"

// TestSlabHandsOutEachCellOnce: across Take, Back and Trim, no cell is
// handed out twice while it may be held, cells come zeroed, a chunk's tail
// carries over a Trim only while the chunk is small, chunks grow within a
// run, and a run that outgrows its chunks goes on from the heap, where
// Back gives nothing back.
func TestSlabHandsOutEachCellOnce(t *testing.T) {
	var s Slab[int]
	seen := map[*int]bool{}
	take := func(n int) []int {
		c := s.Take(n)
		if len(c) != n || cap(c) != n {
			t.Fatalf("Take(%d): len %d cap %d", n, len(c), cap(c))
		}
		for i := range c {
			if seen[&c[i]] || c[i] != 0 {
				t.Fatalf("Take(%d) handed out a cell twice, or not zeroed", n)
			}
			seen[&c[i]] = true
			c[i] = 1
		}
		return c
	}
	for _, takes := range []int{100, 100, 6000, 100} {
		for i := 0; i < takes; i++ {
			take(i % 7)
			if i%50 == 0 {
				// Room given back unwritten is handed out again, once.
				room := s.Take(5)
				s.Back(3)
				for i := range room[:2] {
					seen[&room[i]] = true
				}
			}
		}
		if takes > 1000 && (s.grown != slabChunks || s.chunk != nil) {
			t.Errorf("a run of %d takes made %d chunks and kept one: %v", takes, s.grown, s.chunk != nil)
		}
		s.Trim()
	}
	if s.grown != 0 {
		t.Errorf("Trim left the growth at %d chunks", s.grown)
	}
	s.Take(slabKeep + 1)
	s.Trim()
	if s.chunk != nil {
		t.Error("Trim kept a chunk larger than slabKeep")
	}
}

// TestCellsRoot: an environment rooted at Cells binds from its slabs,
// reads like a nil-rooted one, and a frame and compound from the slabs
// behave like NewFrame's and MakeCompound's.
func TestCellsRoot(t *testing.T) {
	var c Cells
	f := c.Frame([]string{"X", "Y"})
	x, y := f.Var(0), f.Var(1)
	k := c.Compound(Intern("g"), 2)
	k.Args[0], k.Args[1] = NewAtom("a"), y
	env := c.Root().Bind(x, k).Bind(y, NewAtom("b"))
	if env.cells != &c || env.parent.cells != &c {
		t.Error("an extension of the root does not bind from its cells")
	}
	if got := env.Format(x); got != "g(a,b)" {
		t.Errorf("X reads %s, want g(a,b)", got)
	}
	if v, ok := c.Root().Lookup(x); ok {
		t.Errorf("the empty root binds X to %v", v)
	}
	if x.Name != "X" || x.ID+1 != y.ID {
		t.Errorf("frame variables %v/%d, %v/%d", x.Name, x.ID, y.Name, y.ID)
	}
	for i := 0; i < 2*snapshotEvery; i++ {
		env = env.Bind(NewVar("Z"), NewAtom("z"))
	}
	if got := env.Format(x); got != "g(a,b)" {
		t.Errorf("past two snapshots X reads %s, want g(a,b)", got)
	}
}
