package kb

import (
	"fmt"
	"sort"
	"strings"

	"blog/internal/term"
)

// GraphText renders the database in the network style of figure 2 of the
// paper: binary ground facts become `(x) --rel--> (y)` arcs, other facts
// are listed as-is, and rules are shown as graph equivalences.
func (db *DB) GraphText() string {
	var rules, facts []string
	for _, c := range db.Clauses() {
		if c.IsFact() {
			if s, ok := binaryArc(c.Head); ok {
				facts = append(facts, s)
			} else {
				facts = append(facts, c.Head.String())
			}
			continue
		}
		lhs, lok := binaryArc(c.Head)
		var rhs []string
		allBinary := lok
		for _, g := range c.Body {
			s, ok := binaryArc(g)
			if !ok {
				allBinary = false
				break
			}
			rhs = append(rhs, s)
		}
		if allBinary {
			rules = append(rules, lhs+"  :-  "+strings.Join(rhs, "  "))
		} else {
			rules = append(rules, c.String())
		}
	}
	var b strings.Builder
	b.WriteString("RULES (graph equivalences)\n")
	for _, r := range rules {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	b.WriteString("FACTS (network)\n")
	for _, f := range facts {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

func binaryArc(t term.Term) (string, bool) {
	c, ok := t.(*term.Compound)
	if !ok || len(c.Args) != 2 {
		return "", false
	}
	return fmt.Sprintf("(%s) --%s--> (%s)", c.Args[0], c.Functor, c.Args[1]), true
}

// LinkedListText renders the figure-4 linked-list structure: one block per
// clause, each body goal followed by its named, weighted pointers to the
// clauses that can resolve it. weightOf supplies the number printed under
// each pointer (the caller chooses the weight store; kb itself stores no
// weights, mirroring the paper's separation of structure and bounds).
func (db *DB) LinkedListText(weightOf func(Arc) float64) string {
	var b strings.Builder
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, c := range db.clauses {
		fmt.Fprintf(&b, "block %d: %s\n", c.ID, c.String())
		for pos, g := range c.Body {
			name, _ := term.Indicator(g)
			cands := db.candidatesLocked(nil, g)
			if len(cands) == 0 {
				fmt.Fprintf(&b, "  goal %d %-12s (no resolvers)\n", pos, name)
				continue
			}
			for _, callee := range cands {
				a := Arc{Caller: c.ID, Pos: pos, Callee: callee.ID}
				fmt.Fprintf(&b, "  goal %d %-12s -> block %-3d  weight %.3g\n",
					pos, name, callee.ID, weightOf(a))
			}
		}
	}
	return b.String()
}

// GraphDOT renders the fact network of figure 2 in Graphviz DOT syntax:
// ground binary facts become labelled edges; other facts become isolated
// labelled nodes.
func (db *DB) GraphDOT() string {
	var b strings.Builder
	b.WriteString("digraph blog {\n  rankdir=LR;\n  node [shape=ellipse];\n")
	quote := func(s string) string {
		return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
	}
	seen := map[string]bool{}
	node := func(name string) {
		if !seen[name] {
			seen[name] = true
			fmt.Fprintf(&b, "  %s;\n", quote(name))
		}
	}
	for _, c := range db.Clauses() {
		if !c.IsFact() {
			continue
		}
		if f, ok := c.Head.(*term.Compound); ok && len(f.Args) == 2 &&
			term.Ground(nil, c.Head) {
			from, to := f.Args[0].String(), f.Args[1].String()
			node(from)
			node(to)
			fmt.Fprintf(&b, "  %s -> %s [label=%s];\n", quote(from), quote(to), quote(f.FunctorName()))
			continue
		}
		node(c.Head.String())
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes the database for logging and the README quickstart.
type Stats struct {
	Clauses int
	Facts   int
	Rules   int
	Preds   int
	Arcs    int
}

// Stats computes summary statistics.
func (db *DB) ComputeStats() Stats {
	db.mu.RLock()
	s := Stats{Clauses: len(db.clauses), Preds: len(db.preds)}
	for _, c := range db.clauses {
		if c.IsFact() {
			s.Facts++
		} else {
			s.Rules++
		}
	}
	db.mu.RUnlock()
	s.Arcs = len(db.Arcs())
	return s
}

// SortArcs orders arcs by (Caller, Pos, Callee) for deterministic output.
func SortArcs(arcs []Arc) {
	sort.Slice(arcs, func(i, j int) bool {
		a, b := arcs[i], arcs[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.Callee < b.Callee
	})
}
