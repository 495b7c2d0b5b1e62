package main

import (
	"path/filepath"
	"strings"
	"testing"

	"blog"
)

const fig1 = `
gf(X,Z) :- f(X,Y), f(Y,Z).
gf(X,Z) :- f(X,Y), m(Y,Z).
f(curt,elain).   f(sam,larry).
f(dan,pat).      f(larry,den).
f(pat,john).     f(larry,doug).
m(elain,john).
m(marian,elain).
m(peg,den).
m(peg,doug).
`

func runScript(t *testing.T, script string) string {
	t.Helper()
	prog, err := blog.LoadString(fig1)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	runREPL(prog, strings.NewReader(script), &out)
	return out.String()
}

func TestREPLQuery(t *testing.T) {
	out := runScript(t, "gf(sam, G).\n:quit\n")
	if !strings.Contains(out, "G = den") || !strings.Contains(out, "G = doug") {
		t.Errorf("missing solutions:\n%s", out)
	}
	if !strings.Contains(out, "2 solution(s)") {
		t.Errorf("missing summary:\n%s", out)
	}
}

func TestREPLFailingQuery(t *testing.T) {
	out := runScript(t, "gf(peg, G).\n:quit\n")
	if !strings.Contains(out, "no.") {
		t.Errorf("missing 'no.':\n%s", out)
	}
}

func TestREPLBadQuery(t *testing.T) {
	out := runScript(t, "gf(sam.\n:quit\n")
	if !strings.Contains(out, "error:") {
		t.Errorf("missing parse error:\n%s", out)
	}
}

func TestREPLStrategyAndSettings(t *testing.T) {
	out := runScript(t, ":strategy dfs\n:n 1\ngf(sam, G).\n:quit\n")
	if !strings.Contains(out, "strategy: dfs") {
		t.Errorf("strategy echo missing:\n%s", out)
	}
	if !strings.Contains(out, "1 solution(s)") {
		t.Errorf("max solutions not applied:\n%s", out)
	}
	if strings.Contains(out, "G = doug") {
		t.Errorf("DFS with n=1 must stop at den:\n%s", out)
	}
}

func TestREPLLearnAndStats(t *testing.T) {
	out := runScript(t, ":learn on\ngf(sam, G).\n:stats\n:quit\n")
	if !strings.Contains(out, "learn: true") {
		t.Errorf("learn echo missing:\n%s", out)
	}
	if !strings.Contains(out, "12 clauses") {
		t.Errorf("stats missing:\n%s", out)
	}
	if strings.Contains(out, "weights: 0 learned arcs") {
		t.Errorf("learning did not happen:\n%s", out)
	}
}

func TestREPLSessionLifecycle(t *testing.T) {
	script := ":session begin 0.5\n:learn on\ngf(sam, G).\n:session end\n:session end\n:quit\n"
	out := runScript(t, script)
	if !strings.Contains(out, "session begun") {
		t.Errorf("begin missing:\n%s", out)
	}
	if !strings.Contains(out, "session merged:") {
		t.Errorf("merge missing:\n%s", out)
	}
	if !strings.Contains(out, "no session active") {
		t.Errorf("double end not caught:\n%s", out)
	}
}

func TestREPLSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.txt")
	out := runScript(t, ":learn on\ngf(sam, G).\n:save "+path+"\n:quit\n")
	if !strings.Contains(out, "save "+path) {
		t.Errorf("save echo missing:\n%s", out)
	}
	out2 := runScript(t, ":load "+path+"\n:stats\n:quit\n")
	if strings.Contains(out2, "weights: 0 learned arcs") {
		t.Errorf("load restored nothing:\n%s", out2)
	}
	out3 := runScript(t, ":load /nonexistent/file\n:quit\n")
	if !strings.Contains(out3, "error:") {
		t.Errorf("bad load not reported:\n%s", out3)
	}
}

func TestREPLHelpAndUnknown(t *testing.T) {
	out := runScript(t, ":help\n:nonsense\n:quit\n")
	if !strings.Contains(out, "commands:") {
		t.Errorf("help missing:\n%s", out)
	}
	if !strings.Contains(out, "unknown command") {
		t.Errorf("unknown not caught:\n%s", out)
	}
}

func TestREPLEOFExits(t *testing.T) {
	out := runScript(t, "gf(sam, G).\n") // no :quit; EOF ends
	if !strings.Contains(out, "G = den") {
		t.Errorf("query before EOF should run:\n%s", out)
	}
}

const leftRecScript = `
:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b). edge(b, c). edge(c, a). edge(c, d).
`

// TestREPLTabled loads a left-recursive tabled program: queries terminate
// with the complete answer set and :tables lists the memoized tables.
func TestREPLTabled(t *testing.T) {
	prog, err := blog.LoadString(leftRecScript)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	runREPL(prog, strings.NewReader(":tables\npath(a, R).\n:tables\n:quit\n"), &out)
	s := out.String()
	if !strings.Contains(s, "tabled predicates: path/2") {
		t.Errorf("missing tabled predicate listing:\n%s", s)
	}
	if !strings.Contains(s, "no answer tables yet") {
		t.Errorf("missing empty-table notice before first query:\n%s", s)
	}
	for _, want := range []string{"R = a", "R = b", "R = c", "R = d", "4 solution(s)"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in query output:\n%s", want, s)
		}
	}
	// The listing row carries answers, retained size, hits and age columns.
	for _, want := range []string{"4 answers", "complete", "hits", "age ", "retaining"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in table listing after query:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "B ") && !strings.Contains(s, "KiB") {
		t.Errorf("missing human-readable size in table listing:\n%s", s)
	}
}

func TestREPLTablesWithoutDeclarations(t *testing.T) {
	out := runScript(t, ":tables\n:quit\n")
	if !strings.Contains(out, "no tabled predicates") {
		t.Errorf("missing notice:\n%s", out)
	}
}
