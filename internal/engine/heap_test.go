package engine

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap form NodeHeap replaces.
type refHeap struct{ NodeHeap }

func (h *refHeap) Len() int      { return len(h.NodeHeap) }
func (h *refHeap) Swap(i, j int) { h.NodeHeap[i], h.NodeHeap[j] = h.NodeHeap[j], h.NodeHeap[i] }
func (h *refHeap) Push(x any)    { h.NodeHeap = append(h.NodeHeap, x.(*Node)) }
func (h *refHeap) Pop() any {
	n := h.NodeHeap[len(h.NodeHeap)-1]
	h.NodeHeap = h.NodeHeap[:len(h.NodeHeap)-1]
	return n
}

// TestNodeHeapMatchesContainerHeap: NodeHeap sifts as container/heap
// does, so pushes, pops and removals at any index leave the same nodes in
// the same slots, even when (Bound, Seq) keys tie and only a node's
// identity tells them apart.
func TestNodeHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var got NodeHeap
		want := &refHeap{}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(4); {
			case k < 2 || len(got) == 0:
				n := &Node{Bound: float64(rng.Intn(4)), Seq: uint64(rng.Intn(3))}
				got.Push(n)
				heap.Push(want, n)
			case k == 2:
				if g, w := got.Pop(), heap.Pop(want).(*Node); g != w {
					t.Fatalf("round %d op %d: Pop took %p, container/heap %p", round, op, g, w)
				}
			default:
				i := rng.Intn(len(got))
				if g, w := got.Remove(i), heap.Remove(want, i).(*Node); g != w {
					t.Fatalf("round %d op %d: Remove(%d) took %p, container/heap %p", round, op, i, g, w)
				}
			}
			for i := range got {
				if got[i] != want.NodeHeap[i] {
					t.Fatalf("round %d op %d: slot %d differs from container/heap's", round, op, i)
				}
			}
		}
	}
}
