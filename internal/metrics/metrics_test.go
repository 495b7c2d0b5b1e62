package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d", c.Load())
	}
	c.Reset()
	if c.Load() != 0 {
		t.Error("reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
}

func TestMaxConcurrent(t *testing.T) {
	var m Max
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Observe(int64(i*1000 + j))
			}
		}()
	}
	wg.Wait()
	if m.Load() != 7999 {
		t.Errorf("max = %d, want 7999", m.Load())
	}
	m.Observe(3)
	if m.Load() != 7999 {
		t.Errorf("a smaller value lowered the gauge to %d", m.Load())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "name", "count", "ratio")
	tb.AddRow("alpha", 10, 0.51234)
	tb.AddRow("b", 2000, 2.0)
	out := tb.String()
	if !strings.Contains(out, "T1: demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2000") {
		t.Errorf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "0.512") {
		t.Errorf("float formatting:\n%s", out)
	}
	if !strings.Contains(out, "2  ") && !strings.Contains(out, " 2\n") && !strings.Contains(out, "2\n") {
		// integral float renders without decimals
		t.Errorf("integral float formatting:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("xxxxxx", 1)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Columns align: the second column starts at the same offset everywhere.
	col2 := strings.Index(lines[0], "bbbb")
	if strings.Index(lines[1], "----")+2 != col2 && strings.Index(lines[1], "-  -")+3 != col2 {
		t.Errorf("separator misaligned:\n%s", out)
	}
	if strings.Index(lines[2], "1") != col2 {
		t.Errorf("data column misaligned:\n%s", out)
	}
}
