package stats

import (
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "circuit", "time", "count")
	tb.AddRow("s27", 1.5, 42)
	tb.AddRow("counter8", 0.25, 7)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "counter8") || !strings.Contains(out, "1.500") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Error("NumRows")
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("xxxxxx", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header line should be padded to the widest cell
	if len(lines[0]) < len("xxxxxx")+2+len("bbbb")-1 {
		t.Errorf("header not padded: %q", lines[0])
	}
}

func TestDurationFormatting(t *testing.T) {
	tb := NewTable("", "d")
	tb.AddRow(500 * time.Microsecond)
	tb.AddRow(25 * time.Millisecond)
	tb.AddRow(3 * time.Second)
	out := tb.String()
	for _, want := range []string{"µs", "ms", "s"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow(1, 2)
	var sb strings.Builder
	tb.RenderCSV(&sb)
	if sb.String() != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", sb.String())
	}
}

func TestTimer(t *testing.T) {
	tm := StartTimer()
	time.Sleep(2 * time.Millisecond)
	if tm.Elapsed() < time.Millisecond {
		t.Error("timer too fast")
	}
}
