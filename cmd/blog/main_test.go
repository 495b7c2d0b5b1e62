package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes the test
// binary as it (runMain).
func TestMain(m *testing.M) {
	if os.Getenv("BLOG_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns what
// it wrote and how it exited.
func runMain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BLOG_TEST_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestDirectiveRunsAsParsed: a ?- directive runs as the loader parsed it.
// A 20 000-term a+a+…+a chain is not nesting to the reader, but its
// canonical text nests 20 000 levels deep, so reading the printed goal
// again would fail; the directive answers instead.
func TestDirectiveRunsAsParsed(t *testing.T) {
	src := "p(_).\n?- p(a" + strings.Repeat("+a", 19_999) + ").\n"
	path := filepath.Join(t.TempDir(), "chain.pl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runMain(t, "-f", path, "-strategy", "dfs")
	if err != nil {
		t.Fatalf("exit %v:\n%.300s", err, out)
	}
	if !strings.Contains(out, "\n  true  (bound") || strings.Contains(out, "\nno.") {
		t.Errorf("the directive did not answer yes:\n%.300s", out)
	}
}
