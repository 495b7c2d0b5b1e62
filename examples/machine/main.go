// Machine: run a query on the cycle-level simulation of the full figure-5
// B-LOG machine — scoreboard processors with multitasked chains, semantic
// paging disks, and the minimum-seeking network — and sweep the processor
// count to see simulated speedup. The simulator is an exhibit, not part of
// the blog facade, so the example drives internal/machine directly over
// the same program text the live engine loads.
package main

import (
	"fmt"
	"log"

	"blog"
	"blog/internal/kb"
	"blog/internal/machine"
	"blog/internal/parse"
	"blog/internal/weights"
	"blog/internal/workload"
)

// simulate runs goals on a fresh machine with an untrained weight table.
func simulate(db *kb.DB, cfg machine.Config, goals string) *machine.Report {
	gs, err := parse.Query(goals)
	if err != nil {
		log.Fatal(err)
	}
	m, err := machine.New(cfg, db, weights.NewTable(weights.DefaultConfig()))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := m.Run(gs)
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	src := workload.FamilyTree(5, 3)
	db, _, err := kb.LoadString(src)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := blog.LoadString(src)
	if err != nil {
		log.Fatal(err)
	}
	query := "anc(p0, X)"
	fmt.Printf("simulating ?- %s. on the figure-5 machine\n\n", query)

	fmt.Println("procs  tasks  cycles     first-sol  page-ins  migrations  util(min..max)")
	var base int64
	for _, procs := range []int{1, 2, 4, 8} {
		cfg := machine.DefaultConfig()
		cfg.Processors = procs
		cfg.MaxDepth = 32
		rep := simulate(db, cfg, query)
		if procs == 1 {
			base = int64(rep.Cycles)
		}
		minU, maxU := 1.0, 0.0
		for _, u := range rep.ProcUtil {
			if u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
		}
		fmt.Printf("%5d  %5d  %-9d  %-9d  %-8d  %-10d  %.2f..%.2f   (speedup %.2fx)\n",
			procs, cfg.TasksPerProcessor, rep.Cycles, rep.FirstSolution,
			rep.PageIns, rep.Migrations, minU, maxU,
			float64(base)/float64(rep.Cycles))
	}

	fmt.Println("\nthe machine finds the same answers as the live engine:")
	cfg := machine.DefaultConfig()
	cfg.MaxDepth = 32
	rep := simulate(db, cfg, query)
	live, err := prog.Query(query, blog.Parallel, blog.MaxDepth(32))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulated: %d solutions   live goroutines: %d solutions\n",
		len(rep.Solutions), len(live.Solutions))
}
