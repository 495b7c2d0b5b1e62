package table

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"blog/internal/kb"
	"blog/internal/term"
)

// fuzzSpace builds a space over a db that declares `:- table p/2 min(2)`.
func fuzzSpace(tb testing.TB) *Space {
	db, _, err := kb.LoadString(":- table p/2 min(2).\np(seed, 0).\n")
	if err != nil {
		tb.Fatal(err)
	}
	return NewSpace(db, Config{})
}

// feedStream pushes one answer stream into sp's (fresh) p/2 table via the
// producer's addMinAnswer path and returns the table's final (key -> cost)
// state. Each stream element is a (key byte, cost byte) pair.
func feedStream(tb testing.TB, sp *Space, stream []byte) map[string]int64 {
	ev := newEval(sp.NewHandle(), context.Background())
	goal := term.NewCompound("p", term.NewVar("K"), term.NewVar("C"))
	key, _ := Canonicalize(nil, goal)
	t := sp.getOrCreate([]byte(key), nil, goal, ev.h, 0, "")
	for i := 0; i+1 < len(stream); i += 2 {
		ans := term.NewCompound("p",
			term.NewAtom(fmt.Sprintf("k%d", stream[i])),
			term.Int(int64(stream[i+1])))
		if err := ev.addMinAnswer(t, nil, ans); err != nil {
			tb.Fatalf("addMinAnswer(%s): %v", ans, err)
		}
	}
	got := make(map[string]int64, len(t.answers))
	for i, a := range t.answers {
		c := a.(*term.Compound)
		key := c.Args[0].String()
		if _, dup := got[key]; dup {
			tb.Fatalf("key %s appears twice in the answer list %v", key, t.answers)
		}
		got[key] = t.costs[i]
		if int64(c.Args[1].(term.Int)) != t.costs[i] {
			tb.Fatalf("answer %s disagrees with costs[%d] = %d", a, i, t.costs[i])
		}
	}
	return got
}

// FuzzSubsume drives random answer streams into a min(2) table and checks
// the lattice invariant: whatever the arrival order, the table ends with
// exactly the pointwise minima of the stream — one answer per key, each
// carrying the least cost seen for that key, none dropped, none extra.
// Order-independence is asserted by replaying every stream reversed.
func FuzzSubsume(f *testing.F) {
	// Improvement after the projection is already memoized (7 then 3),
	// then a dominated late arrival (9).
	f.Add([]byte{0, 7, 0, 3, 0, 9})
	// Tie cost: the second equal-cost arrival must be subsumed, not doubled.
	f.Add([]byte{4, 5, 4, 5})
	// Interleaved keys with improvements on both.
	f.Add([]byte{1, 9, 2, 8, 1, 2, 2, 1, 1, 2})
	// Strictly decreasing chain on one key.
	f.Add([]byte{3, 200, 3, 100, 3, 50, 3, 1, 3, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) < 2 {
			t.Skip()
		}
		want := make(map[string]int64)
		for i := 0; i+1 < len(stream); i += 2 {
			key := fmt.Sprintf("k%d", stream[i])
			cost := int64(stream[i+1])
			if cur, ok := want[key]; !ok || cost < cur {
				want[key] = cost
			}
		}
		got := feedStream(t, fuzzSpace(t), stream)
		if fmt.Sprint(sortedPairs(got)) != fmt.Sprint(sortedPairs(want)) {
			t.Fatalf("stream %v:\n table: %v\nminima: %v", stream, sortedPairs(got), sortedPairs(want))
		}
		// Reverse the stream: the final state must be identical.
		rev := make([]byte, 0, len(stream))
		for i := (len(stream)/2)*2 - 2; i >= 0; i -= 2 {
			rev = append(rev, stream[i], stream[i+1])
		}
		gotRev := feedStream(t, fuzzSpace(t), rev)
		if fmt.Sprint(sortedPairs(gotRev)) != fmt.Sprint(sortedPairs(got)) {
			t.Fatalf("stream %v is order-dependent:\n forward: %v\nreversed: %v", stream, sortedPairs(got), sortedPairs(gotRev))
		}
	})
}

func sortedPairs(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(out)
	return out
}
