// Command blogviz dumps the paper's structural figures for any loaded
// program: the database graph (figure 2), the OR search tree of a query
// (figures 1 and 3), and the weighted linked-list storage structure
// (figure 4).
//
// Usage:
//
//	blogviz -fig graph -f program.pl
//	blogviz -fig tree  -f program.pl -q 'gf(sam,G)'
//	blogviz -fig list  -f program.pl
//
// Without -f it uses the paper's own figure-1 example program.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"blog"
	"blog/internal/experiments"
)

func main() {
	var (
		fig   = flag.String("fig", "tree", "what to draw: graph | dot | tree | list | trace")
		file  = flag.String("f", "", "program file (default: the paper's figure-1 example)")
		query = flag.String("q", "", "query for -fig tree/trace (default: the file's first ?- directive)")
	)
	flag.Parse()

	src := experiments.Fig1Program
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	}
	prog, err := blog.LoadString(src)
	if err != nil {
		fatal(err)
	}
	// The first directive runs as the loader parsed it; -q and the default
	// query are parsed here.
	var q *blog.Goal
	text := *query
	if dq := prog.DirectiveQueries(); text == "" && len(dq) > 0 {
		q = &dq[0]
	} else if text == "" && *file == "" {
		text = "gf(sam,G)"
	}
	if text != "" {
		g, err := blog.ParseGoal(text)
		if err != nil {
			fatal(err)
		}
		q = &g
	}

	switch *fig {
	case "graph":
		fmt.Print(prog.GraphText())
	case "dot":
		fmt.Print(prog.GraphDOT())
	case "list":
		fmt.Print(prog.LinkedListText())
	case "tree":
		res, _ := run(prog, q, blog.RecordTree())
		fmt.Print(res.Tree)
	case "trace":
		res, sols := run(prog, q, blog.RecordTrace(), blog.MaxSolutions(1))
		for _, line := range res.Trace {
			fmt.Println(line)
		}
		for _, s := range sols {
			fmt.Println("solution:", s)
		}
	default:
		fatal(fmt.Errorf("unknown figure %q (graph | tree | list | trace)", *fig))
	}
}

// run answers q depth-first under opts, its solutions converted; a
// figure that draws a run needs a query.
func run(prog *blog.Program, q *blog.Goal, opts ...blog.Option) (*blog.Result, []blog.Solution) {
	if q == nil {
		fatal(fmt.Errorf("this figure needs -q or a ?- directive in the file"))
	}
	var sols []blog.Solution
	res, err := prog.QueryEach(context.Background(), *q, blog.DFS, func(a blog.Answer) error {
		sols = append(sols, a.Solution())
		return nil
	}, opts...)
	if err != nil {
		fatal(err)
	}
	return res, sols
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blogviz:", err)
	os.Exit(1)
}
