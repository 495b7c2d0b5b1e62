package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"blog"
)

// replState carries the interactive session's settings.
type replState struct {
	prog     *blog.Program
	strategy blog.Strategy
	learn    bool
	tabled   bool
	profile  bool
	maxSol   int
	maxDepth int
	workers  int
	session  *blog.Session
}

const replHelp = `commands:
  <goal>.                 run a query, e.g. gf(sam, G).
  :strategy dfs|bfs|best|parallel
  :learn on|off           apply section-5 weight updates
  :n <k>                  stop after k solutions (0 = all)
  :depth <k>              chain depth limit (0 = default)
  :workers <k>            parallel worker count
  :session begin [alpha]  start a learning session
  :session end            merge the session into the global table
  :save <file>            write learned weights
  :load <file>            read learned weights
  :stats                  database and weight-table statistics
  :tables                 tabled predicates and memoized answer tables
  :tabled on|off          honor :- table declarations (default on)
  :profile on|off         print span trace and hottest predicates per query
  :help                   this text
  :quit                   leave

predicates declared ':- table name/arity' in the loaded file resolve
through memoized answer tables (left recursion terminates complete);
':- table name/arity min(N)' adds answer subsumption: argument N is a
cost slot and each table keeps only the least-cost answer per binding
of the remaining arguments (weighted shortest-path workloads).`

// runREPL drives an interactive loop until :quit or EOF.
func runREPL(prog *blog.Program, in io.Reader, out io.Writer) {
	st := &replState{prog: prog, strategy: blog.BestFirst, workers: 4, tabled: true}
	sc := bufio.NewScanner(in)
	fmt.Fprintln(out, "B-LOG interactive. :help for commands.")
	for {
		fmt.Fprint(out, "?- ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, ":"):
			if quit := st.command(line, out); quit {
				return
			}
		default:
			st.query(line, out)
		}
	}
}

// command handles a colon directive; returns true to exit.
func (st *replState) command(line string, out io.Writer) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":quit", ":q", ":exit":
		return true
	case ":help", ":h":
		fmt.Fprintln(out, replHelp)
	case ":strategy":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: :strategy dfs|bfs|best|parallel")
			break
		}
		strat, err := blog.ParseStrategy(fields[1])
		if err != nil {
			fmt.Fprintf(out, "unknown strategy %q\n", fields[1])
			break
		}
		st.strategy = strat
		fmt.Fprintf(out, "strategy: %v\n", st.strategy)
	case ":learn":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			fmt.Fprintln(out, "usage: :learn on|off")
			break
		}
		st.learn = fields[1] == "on"
		fmt.Fprintf(out, "learn: %v\n", st.learn)
	case ":tabled":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			fmt.Fprintln(out, "usage: :tabled on|off")
			break
		}
		st.tabled = fields[1] == "on"
		fmt.Fprintf(out, "tabled: %v\n", st.tabled)
	case ":profile":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			fmt.Fprintln(out, "usage: :profile on|off")
			break
		}
		st.profile = fields[1] == "on"
		fmt.Fprintf(out, "profile: %v\n", st.profile)
	case ":n", ":depth", ":workers":
		if len(fields) != 2 {
			fmt.Fprintf(out, "usage: %s <int>\n", fields[0])
			break
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil || v < 0 {
			fmt.Fprintf(out, "bad count %q\n", fields[1])
			break
		}
		switch fields[0] {
		case ":n":
			st.maxSol = v
		case ":depth":
			st.maxDepth = v
		case ":workers":
			st.workers = v
		}
		fmt.Fprintf(out, "%s = %d\n", fields[0][1:], v)
	case ":session":
		st.sessionCmd(fields, out)
	case ":save", ":load":
		if len(fields) != 2 {
			fmt.Fprintf(out, "usage: %s <file>\n", fields[0])
			break
		}
		if err := st.persist(fields[0] == ":save", fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprintf(out, "%s %s: %d learned arcs\n", fields[0][1:], fields[1], st.prog.LearnedArcs())
		}
	case ":stats":
		clauses, facts, rules, preds, arcs := st.prog.Stats()
		fmt.Fprintf(out, "database: %d clauses (%d facts, %d rules), %d predicates, %d arcs\n",
			clauses, facts, rules, preds, arcs)
		fmt.Fprintf(out, "weights: %d learned arcs", st.prog.LearnedArcs())
		if st.session != nil {
			fmt.Fprintf(out, " (+%d session-local)", st.session.LocalLearned())
		}
		fmt.Fprintln(out)
	case ":tables":
		st.tablesCmd(out)
	default:
		fmt.Fprintf(out, "unknown command %s (:help)\n", fields[0])
	}
	return false
}

func (st *replState) sessionCmd(fields []string, out io.Writer) {
	if len(fields) < 2 {
		fmt.Fprintln(out, "usage: :session begin [alpha] | :session end")
		return
	}
	switch fields[1] {
	case "begin":
		if st.session != nil {
			fmt.Fprintln(out, "a session is already active; :session end first")
			return
		}
		alpha := 0.0
		if len(fields) == 3 {
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				fmt.Fprintf(out, "bad alpha %q\n", fields[2])
				return
			}
			alpha = v
		}
		st.session = st.prog.NewSession(alpha)
		fmt.Fprintln(out, "session begun; learning is now session-local")
	case "end":
		if st.session == nil {
			fmt.Fprintln(out, "no session active")
			return
		}
		adopted, averaged, kept, vetoed := st.session.End()
		st.session = nil
		fmt.Fprintf(out, "session merged: %d adopted, %d averaged, %d infinities kept, %d vetoed\n",
			adopted, averaged, kept, vetoed)
	default:
		fmt.Fprintln(out, "usage: :session begin [alpha] | :session end")
	}
}

// tablesCmd lists the tabled predicates and their live answer tables.
func (st *replState) tablesCmd(out io.Writer) {
	preds := st.prog.TabledPreds()
	if len(preds) == 0 {
		fmt.Fprintln(out, "no tabled predicates (declare with ':- table name/arity.' in the program)")
		return
	}
	fmt.Fprintf(out, "tabled predicates: %s\n", strings.Join(preds, ", "))
	infos := st.prog.Tables()
	if len(infos) == 0 {
		fmt.Fprintln(out, "no answer tables yet (tables materialize as tabled goals are queried)")
		return
	}
	now := time.Now()
	for _, ti := range infos {
		state := ti.State
		if ti.Min > 0 {
			state += fmt.Sprintf("  min(%d)", ti.Min)
		}
		fmt.Fprintf(out, "  %-24s %4d answers  %8s  %4d hits  age %-8s %s\n",
			ti.Call, ti.Answers, humanBytes(ti.Bytes), ti.Hits,
			now.Sub(ti.CreatedAt).Round(time.Second), state)
	}
	_, tot := st.prog.TableStats()
	acct := st.prog.TableAccounting()
	fmt.Fprintf(out, "%d tables retaining %s; %d hits, %d re-derivations avoided",
		len(infos), humanBytes(acct.RetainedBytes), tot.Hits, tot.RederivationsAvoided)
	if tot.Subsumed+tot.Improved > 0 {
		fmt.Fprintf(out, "; %d answers subsumed, %d improved", tot.Subsumed, tot.Improved)
	}
	fmt.Fprintln(out)
}

// humanBytes renders an approximate byte count for table listings.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func (st *replState) persist(save bool, path string) error {
	if save {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return st.prog.SaveWeights(f)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return st.prog.LoadWeights(f)
}

func (st *replState) query(line string, out io.Writer) {
	line = strings.TrimSuffix(line, ".")
	opts := []blog.Option{blog.MaxSolutions(st.maxSol), blog.MaxDepth(st.maxDepth)}
	if st.tabled {
		// A no-op for programs with no `:- table` declarations.
		opts = append(opts, blog.Tabled())
	}
	if st.learn {
		opts = append(opts, blog.Learn())
	}
	if st.session != nil {
		opts = append(opts, blog.InSession(st.session))
	}
	if st.strategy == blog.Parallel {
		opts = append(opts, blog.Workers(st.workers))
	}
	var prof *blog.Profiler
	if st.profile {
		prof = blog.NewProfiler()
		opts = append(opts, blog.Traced(), blog.Profiled(prof))
	}
	// Ctrl-C interrupts the running query (every strategy honors the
	// context) instead of killing the REPL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	res, err := st.prog.QueryContext(ctx, line, st.strategy, opts...)
	stop()
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(out, "interrupted.")
		return
	}
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if len(res.Solutions) == 0 {
		fmt.Fprintln(out, "no.")
		st.printProfile(res, prof, out)
		return
	}
	for _, s := range res.Solutions {
		fmt.Fprintf(out, "%s ;\n", s)
	}
	fmt.Fprintf(out, "%d solution(s), %d expansions\n", len(res.Solutions), res.Expanded)
	st.printProfile(res, prof, out)
}

// printProfile renders the span trace and hottest-predicate table after a
// query when :profile is on.
func (st *replState) printProfile(res *blog.Result, prof *blog.Profiler, out io.Writer) {
	if prof == nil {
		return
	}
	if res.Spans != nil {
		fmt.Fprint(out, res.Spans.Render())
	}
	top := prof.Top(8)
	if len(top) == 0 {
		return
	}
	fmt.Fprintf(out, "%-20s %10s %10s %10s %10s\n", "pred", "expansions", "vm", "binds", "µs")
	for _, p := range top {
		fmt.Fprintf(out, "%-20s %10d %10d %10d %10.1f\n",
			p.Pred, p.Expansions, p.VMDispatches, p.TrailBinds, float64(p.Nanos)/1e3)
	}
}
