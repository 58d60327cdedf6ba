package obs

import (
	"strings"
	"sync"
	"testing"
)

// traceOf returns a collector holding spans, flushed one by one as a
// processor's barrier flush would deliver them.
func traceOf(spans ...Span) *ChromeTrace {
	c := NewChromeTrace()
	for _, s := range spans {
		c.FlushSpans(s.Proc, []Span{s})
	}
	return c
}

// row returns the bucket characters of timeline row i (0 = proc 0).
func row(t *testing.T, out string, i int) string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < i+2 {
		t.Fatalf("timeline has no row %d:\n%s", i, out)
	}
	return lines[i+1][strings.Index(lines[i+1], "|")+1:]
}

func TestWaitShareTotals(t *testing.T) {
	c := traceOf(
		Span{Proc: 0, Phase: PhaseCompute, Start: 0, End: 10},
		Span{Proc: 1, Phase: PhaseWait, Start: 5, End: 10},
		Span{Proc: 0, Phase: PhaseTransfer, Start: 10, End: 12},
		Span{Proc: 0, Phase: PhasePack, Start: 12, End: 12}, // zero length: no time
	)
	if got := c.WaitShare(); got < 0.29 || got > 0.30 {
		t.Errorf("wait share %v, want 5/17", got)
	}
	if r := row(t, c.Timeline(12), 0); strings.Contains(r, "P") {
		t.Errorf("zero-length pack span rendered: %q", r)
	}
}

func TestSpansSorted(t *testing.T) {
	c := traceOf(
		Span{Proc: 1, Phase: PhaseCompute, Start: 3, End: 4},
		Span{Proc: 0, Phase: PhaseCompute, Start: 5, End: 6},
		Span{Proc: 0, Phase: PhaseCompute, Start: 1, End: 2},
	)
	ev := c.Spans()
	if ev[0].Proc != 0 || ev[0].Start != 1 || ev[2].Proc != 1 {
		t.Errorf("spans not sorted: %v", ev)
	}
}

func TestTimelineRendering(t *testing.T) {
	c := traceOf(
		Span{Proc: 0, Phase: PhaseCompute, Start: 0, End: 50},
		Span{Proc: 0, Phase: PhaseTransfer, Start: 50, End: 100},
		Span{Proc: 1, Phase: PhaseCompute, Start: 0, End: 20},
		Span{Proc: 1, Phase: PhaseWait, Start: 20, End: 100},
	)
	out := c.Timeline(20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "virtual-time timeline (100 µs across 20 buckets)") {
		t.Errorf("header changed: %q", lines[0])
	}
	if !strings.Contains(lines[1], "C") || !strings.Contains(lines[1], "T") {
		t.Errorf("proc 0 row missing phases: %q", lines[1])
	}
	if !strings.Contains(lines[2], ".") {
		t.Errorf("proc 1 row missing wait: %q", lines[2])
	}
	// Proc 0's first half is compute, second half transfer.
	if r := row(t, out, 0); r[0] != 'C' || r[18] != 'T' {
		t.Errorf("phase placement wrong: %q", r)
	}
}

func TestTimelineEmptyAndReset(t *testing.T) {
	c := NewChromeTrace()
	if !strings.Contains(c.Timeline(10), "no events") {
		t.Error("empty timeline should say so")
	}
	if c.WaitShare() != 0 {
		t.Error("empty wait share should be 0")
	}
	c.FlushSpans(0, []Span{{Proc: 0, Phase: PhaseCompute, Start: 0, End: 1}})
	c.Reset()
	if len(c.Spans()) != 0 || !strings.Contains(c.Timeline(10), "no events") {
		t.Error("reset should clear")
	}
}

// A span ending exactly at the makespan lands in the last bucket — the
// last-bucket clamp must not drop it or index out of range.
func TestTimelineEventAtMakespanBoundary(t *testing.T) {
	c := traceOf(
		Span{Proc: 0, Phase: PhaseCompute, Start: 0, End: 100},
		Span{Proc: 0, Phase: PhaseTransfer, Start: 90, End: 100}, // End == makespan
	)
	r := row(t, c.Timeline(10), 0)
	if len(r) < 10 {
		t.Fatalf("row too short: %q", r)
	}
	// The last bucket holds 10µs of compute and 10µs of transfer; the
	// fixed-order tie-break keeps compute, but the bucket must be
	// non-blank either way.
	if r[9] == ' ' {
		t.Errorf("bucket at makespan boundary is blank: %q", r)
	}
}

// Zero and negative widths fall back to 80 buckets instead of
// panicking or dividing by zero.
func TestTimelineWidthFallback(t *testing.T) {
	c := traceOf(Span{Proc: 0, Phase: PhaseCompute, Start: 0, End: 10})
	for _, w := range []int{0, -5} {
		out := c.Timeline(w)
		if !strings.Contains(out, "80 buckets") {
			t.Errorf("Timeline(%d) did not fall back to 80 buckets:\n%s", w, out)
		}
		if got := strings.LastIndex(row(t, out, 0), "|"); got != 80 {
			t.Errorf("Timeline(%d) row is %d buckets wide, want 80", w, got)
		}
	}
}

// When two phases split a bucket exactly evenly the winner is the one
// earlier in the fixed phase order (C, P, T, U, .), independent of
// span order — render twice and demand byte equality as well.
func TestTimelineBucketTieBreak(t *testing.T) {
	// One bucket (width 1) with a perfect 50/50 split of wait and
	// compute; compute precedes wait in the fixed order and must win.
	c := traceOf(
		Span{Proc: 0, Phase: PhaseWait, Start: 0, End: 5},
		Span{Proc: 0, Phase: PhaseCompute, Start: 5, End: 10},
	)
	out := c.Timeline(1)
	if r := row(t, out, 0); r[0] != 'C' {
		t.Errorf("tie broke to %q, want C (fixed phase order)", r[0])
	}
	for i := 0; i < 10; i++ {
		if again := c.Timeline(1); again != out {
			t.Fatalf("rendering is not deterministic:\n%s\nvs\n%s", out, again)
		}
	}
}

// Serve's degraded fallback emits a service-level span (Proc -1) and a
// failed run leaves zero-length abort markers. Neither is processor
// busy or wait time: the timeline must not index a row for Proc -1,
// and the wait share must count only the engine phases.
func TestTimelineSkipsServiceAndAbortSpans(t *testing.T) {
	c := traceOf(
		Span{Proc: 0, Phase: PhaseCompute, Start: 0, End: 30},
		Span{Proc: 0, Phase: PhaseWait, Start: 30, End: 40},
		Span{Proc: -1, Phase: PhaseDegraded, Start: 0, End: 1000, Req: "r1"},
		Span{Proc: 1, Phase: PhaseAbort, Start: 40, End: 40},
	)
	out := c.Timeline(4)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + proc 0 row only, got:\n%s", out)
	}
	if !strings.Contains(lines[0], "40 µs") {
		t.Errorf("makespan should ignore the service span: %q", lines[0])
	}
	if r := row(t, out, 0); r != "CCC.|" {
		t.Errorf("proc 0 row = %q, want %q", r, "CCC.|")
	}
	if got := c.WaitShare(); got != 0.25 {
		t.Errorf("wait share %v, want 10/40", got)
	}
	c.Reset()
	c.FlushSpans(-1, []Span{{Proc: -1, Phase: PhaseDegraded, Start: 0, End: 5}})
	if !strings.Contains(c.Timeline(8), "no events") || c.WaitShare() != 0 {
		t.Error("a trace of only service spans has no engine timeline")
	}
}

// Concurrent flushes from many goroutines (one per processor, the
// production use) must be race-free and lose nothing, also while the
// renderers read. Run with -race to make this bite.
func TestTimelineConcurrentFlush(t *testing.T) {
	c := NewChromeTrace()
	const procs, spans = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				start := float64(i)
				c.FlushSpans(p, []Span{{Proc: p, Phase: PhaseCompute, Start: start, End: start + 1}})
				if i%10 == 0 {
					c.WaitShare() // read while writers are active
					c.Timeline(16)
				}
			}
		}(p)
	}
	wg.Wait()
	if got := len(c.Spans()); got != procs*spans {
		t.Errorf("recorded %d spans, want %d", got, procs*spans)
	}
	if got := c.WaitShare(); got != 0 {
		t.Errorf("wait share %v, want 0 (compute only)", got)
	}
	out := c.Timeline(10)
	for p := 0; p < procs; p++ {
		if r := row(t, out, p); r != "CCCCCCCCCC|" {
			t.Errorf("proc %d row = %q, want all compute", p, r)
		}
	}
}

// Each engine phase has its own timeline letter, paired with its name;
// the phases past the engine's five have none.
func TestPhaseLetters(t *testing.T) {
	want := map[Phase]struct {
		letter byte
		name   string
	}{
		PhaseCompute: {'C', "compute"}, PhasePack: {'P', "pack"}, PhaseTransfer: {'T', "transfer"},
		PhaseUnpack: {'U', "unpack"}, PhaseWait: {'.', "wait"},
	}
	if len(want) != len(phaseLetters) {
		t.Fatalf("%d letters, want %d", len(phaseLetters), len(want))
	}
	for ph, w := range want {
		if got := phaseLetters[ph]; got != w.letter {
			t.Errorf("%v letter %q, want %q", ph, got, w.letter)
		}
		if got := ph.String(); got != w.name {
			t.Errorf("letter %q names %q, want %q", w.letter, got, w.name)
		}
		if r := row(t, traceOf(Span{Proc: 0, Phase: ph, Start: 0, End: 1}).Timeline(4), 0); r[0] != w.letter {
			t.Errorf("%v renders as %q, want %q", ph, r[0], w.letter)
		}
	}
}
