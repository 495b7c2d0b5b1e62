// Command blogbench regenerates the exhibits of the reproduction: the
// paper's six figures (F1-F6) and the quantitative experiments (E1-E10)
// of internal/experiments, printing the tables README's "Figures and
// experiments" section describes.
//
// Usage:
//
//	blogbench                    # run everything
//	blogbench -exp E1,E4         # run selected experiments
//	blogbench -list              # list experiment ids
//	blogbench -exp E1 -cpuprofile cpu.out   # profile a run (go tool pprof cpu.out)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"blog/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	os.Exit(run(*exp, *list, *cpuProfile, *memProfile))
}

// run holds the whole tool body so the profile-flushing defers execute on
// every exit path (os.Exit in main would skip them).
func run(exp string, list bool, cpuProfile, memProfile string) int {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blogbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "blogbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "blogbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not garbage awaiting collection
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "blogbench: memprofile: %v\n", err)
			}
		}()
	}

	if list {
		for _, r := range experiments.All() {
			fmt.Printf("%-3s %s\n", r.ID, r.Desc)
		}
		return 0
	}

	var runners []experiments.Runner
	if exp == "all" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(exp, ",") {
			id = strings.TrimSpace(id)
			r, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "blogbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			runners = append(runners, r)
		}
	}

	// Ctrl-C stops the suite at the next experiment boundary. Once the
	// first interrupt lands, restore default signal handling so a second
	// Ctrl-C kills the process even mid-experiment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	for i, r := range runners {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "blogbench: interrupted")
			return 130
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", r.ID, r.Desc)
		if err := r.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "blogbench: %s failed: %v\n", r.ID, err)
			return 1
		}
	}
	return 0
}
