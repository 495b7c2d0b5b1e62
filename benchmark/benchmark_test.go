package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end and through every ladder rung
// once, on tiny runs: every metric must be printed, every answer verified.
// Nothing is asserted about the times themselves, so the test holds under
// the race detector.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.generate(1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := endToEndRun(in, 24)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.firstErr)
			}
			for _, spec := range reported {
				if s, ok := res.EndToEnd[spec.Name]; !ok || s.Value <= 0 || len(s.Values) != repetitions {
					t.Errorf("%s = %+v, want a positive value from %d repetitions", spec.Name, s, repetitions)
				}
			}
			traced, err := tracedRun(in, 0.1, 24, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced load failed %d of %d: %v", traced.Failed, traced.Attempted, traced.firstErr)
			}
			for _, spec := range perLayer {
				if _, ok := traced.PerLayer[spec.Name]; !ok {
					t.Errorf("per-layer metric %s missing", spec.Name)
				}
			}
			for _, rung := range rungNames {
				if v := traced.PerLayer[rung+".ns_per_query"].Value; v <= 0 {
					t.Errorf("rung %s timed nothing", rung)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(traced.resultLine()), &line); err != nil || len(line.Metrics) != len(perLayer) {
				t.Errorf("result line has %d metrics, want %d (%v)", len(line.Metrics), len(perLayer), err)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the root of the repository to
// the names, units, directions and bounds the program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricSpec                 `json:"end_to_end"`
		PerLayer  []metricSpec                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %+v, runs as %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, declared, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Fatalf("%d %s metrics declared, %d printed", len(declared), kind, len(printed))
		}
		for i, spec := range printed {
			checkName(spec.Name)
			if declared[i] != spec {
				t.Errorf("%s metric %d declared as %+v, printed as %+v", kind, i, declared[i], spec)
			}
		}
	}
	same("end-to-end", decl.EndToEnd, endToEnd)
	same("per-layer", decl.PerLayer, perLayer)
}

// TestSeedFixesInputs checks that a seed fixes the program's inputs — the
// request streams byte for byte, and with them the engine's exact work
// counters — and that another seed gives other inputs.
func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.generate(7)
		c, _ := w.generate(8)
		if a.digest(500) != b.digest(500) {
			t.Errorf("%s: the same seed gave two different request streams", w.name)
		}
		// The two search workloads send one fixed query; no seed varies it.
		if len(a.pools[0].queries) > 1 && a.digest(500) == c.digest(500) {
			t.Errorf("%s: two seeds gave the same request stream", w.name)
		}
	}
	in, err := workloadByName("point_dfs").generate(7)
	if err != nil {
		t.Fatal(err)
	}
	var counts [2]engineCounts
	for i := range counts {
		l := newLadder(in, 100)
		if _, err := l.run(); err != nil {
			t.Fatal(err)
		}
		counts[i] = l.engine
	}
	if counts[0] != counts[1] || counts[0].expanded == 0 {
		t.Errorf("engine counts did not repeat: %+v then %+v", counts[0], counts[1])
	}
}

// TestWrongAnswersAreFailures corrupts the expected sets and checks the
// load generator reports the mismatch instead of measuring on.
func TestWrongAnswersAreFailures(t *testing.T) {
	in, err := workloadByName("point_dfs").generate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range in.pools[0].queries {
		q.want = map[string]bool{"G = nobody": true}
	}
	if _, err := runRepetition(in, 100); err == nil || !strings.Contains(err.Error(), "answer") {
		t.Fatalf("corrupted expected sets gave error %v, want an answer mismatch", err)
	}
	q := in.pools[0].queries[0]
	var a answer
	body := []byte(`{"solutions":[{"text":"G = p9"}],"exhausted":true}`)
	if err := q.check(200, body, &a); err == nil {
		t.Error("an unexpected answer passed verification")
	}
	q.want = map[string]bool{"G = p9": true, "G = p10": true}
	if err := q.check(200, body, &a); err == nil {
		t.Error("a missing answer passed verification")
	}
	q.want = map[string]bool{"G = p9": true}
	if err := q.check(200, body, &a); err != nil {
		t.Errorf("the exact answer set failed verification: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
