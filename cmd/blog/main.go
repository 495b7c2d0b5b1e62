// Command blog is the B-LOG interpreter: it loads a logic program and
// answers queries under a chosen search strategy (Prolog-style DFS, BFS,
// B-LOG best-first branch and bound, or the parallel OR-engine).
//
// Usage:
//
//	blog -f program.pl -q 'gf(sam, G)' [-strategy best] [-learn] [-n 0]
//	blog -f program.pl            # runs the ?- directives in the file
//
// With -learn, arc weights are updated per the paper's section-5 rules,
// so repeating a query shows the adaptive speedup; -stats prints search
// work counters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"blog"
)

func main() {
	var (
		file        = flag.String("f", "", "program file to load (required)")
		query       = flag.String("q", "", "query to run (default: the file's ?- directives)")
		strategy    = flag.String("strategy", "best", "search strategy: dfs | bfs | best | parallel")
		workers     = flag.Int("workers", 4, "workers for -strategy parallel")
		dFlag       = flag.Float64("d", -1, "migration threshold D (enables two-level parallel scheduling)")
		learn       = flag.Bool("learn", false, "apply section-5 weight updates")
		n           = flag.Int("n", 0, "stop after n solutions (0 = all)")
		depth       = flag.Int("depth", 0, "maximum chain depth (0 = default A)")
		stats       = flag.Bool("stats", false, "print search statistics")
		tree        = flag.Bool("tree", false, "print the search tree (sequential strategies)")
		trace       = flag.Bool("trace", false, "print a figure-1 style resolution trace")
		repeat      = flag.Int("repeat", 1, "run the query this many times (shows learning)")
		interactive = flag.Bool("i", false, "interactive REPL after loading")
		usePrelude  = flag.Bool("prelude", false, "prepend the list/pair standard library")
		tabled      = flag.Bool("tabled", true, "honor :- table declarations (answer memoization)")
	)
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "blog: -f program file is required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	prog, err := blog.LoadString(string(src), blog.Config{Prelude: *usePrelude})
	if err != nil {
		fatal(err)
	}
	clauses, facts, rules, preds, arcs := prog.Stats()
	fmt.Printf("loaded %s: %d clauses (%d facts, %d rules), %d predicates, %d arcs\n",
		*file, clauses, facts, rules, preds, arcs)
	if tabled := prog.TabledPreds(); len(tabled) > 0 {
		fmt.Printf("tabled: %s\n", strings.Join(tabled, ", "))
	}

	if *interactive {
		runREPL(prog, os.Stdin, os.Stdout)
		return
	}

	strat, err := blog.ParseStrategy(*strategy)
	if err != nil {
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}

	queries := prog.DirectiveQueries()
	if *query != "" {
		queries = []string{*query}
	}
	if len(queries) == 0 {
		fmt.Println("no query given and no ?- directives in the file")
		return
	}

	// Ctrl-C cancels the in-flight query cleanly instead of killing the
	// process mid-search.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	for _, q := range queries {
		for rep := 0; rep < *repeat; rep++ {
			if *repeat > 1 {
				fmt.Printf("--- run %d ---\n", rep+1)
			}
			opts := []blog.Option{blog.MaxSolutions(*n), blog.MaxDepth(*depth)}
			if *tabled {
				// A no-op for programs with no `:- table` declarations.
				opts = append(opts, blog.Tabled())
			}
			if *learn {
				opts = append(opts, blog.Learn())
			}
			if strat == blog.Parallel {
				opts = append(opts, blog.Workers(*workers))
				if *dFlag >= 0 {
					opts = append(opts, blog.MigrationThreshold(*dFlag))
				}
			} else {
				if *tree {
					opts = append(opts, blog.RecordTree())
				}
				if *trace {
					opts = append(opts, blog.RecordTrace())
				}
			}
			res, err := prog.QueryContext(ctx, q, strat, opts...)
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "blog: interrupted")
				os.Exit(130)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("?- %s.\n", q)
			if len(res.Solutions) == 0 {
				fmt.Println("no.")
			}
			for _, s := range res.Solutions {
				fmt.Printf("  %s  (bound %.3g, depth %d)\n", s, s.Bound, s.Depth)
			}
			if *trace && len(res.Trace) > 0 {
				fmt.Println("trace:")
				for _, line := range res.Trace {
					fmt.Println("  " + line)
				}
			}
			if *tree && res.Tree != "" {
				fmt.Println("search tree:")
				fmt.Print(res.Tree)
			}
			if *stats {
				fmt.Printf("stats: expanded=%d generated=%d failures=%d exhausted=%v learned-arcs=%d\n",
					res.Expanded, res.Generated, res.Failures, res.Exhausted, prog.LearnedArcs())
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blog:", err)
	os.Exit(1)
}
