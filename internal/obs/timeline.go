package obs

import (
	"fmt"
	"strings"
)

// The ASCII renderers of a ChromeTrace: a textual Gantt chart and the
// barrier-wait share. They make visible what the aggregate numbers
// hide: where each processor spends its time and how much of it is
// idling at barriers — the load imbalance that, e.g., sample sort
// suffers on skewed inputs (§5.5).

// phaseLetters are the timeline's one-letter codes for the engine
// phases; the array order is the tie-break order of a bucket.
var phaseLetters = [PhaseAbort]byte{
	PhaseCompute: 'C', PhasePack: 'P', PhaseTransfer: 'T', PhaseUnpack: 'U', PhaseWait: '.',
}

// engineSpan reports whether s is processor time the renderers cover:
// a positive-length span of one of the five engine phases. Service
// spans (Proc -1, e.g. degraded fallbacks) and zero-length abort
// markers are left out.
func engineSpan(s Span) bool {
	return s.Proc >= 0 && s.Phase < PhaseAbort && s.End > s.Start
}

// WaitShare returns the fraction of recorded engine time processors
// spent idling at barriers — a direct load-imbalance measure.
func (c *ChromeTrace) WaitShare() float64 {
	var wait, all float64
	c.mu.Lock()
	for _, s := range c.spans {
		if !engineSpan(s) {
			continue
		}
		all += s.Duration()
		if s.Phase == PhaseWait {
			wait += s.Duration()
		}
	}
	c.mu.Unlock()
	if all == 0 {
		return 0
	}
	return wait / all
}

// Timeline renders a Gantt chart: one row per processor, width buckets
// across the makespan (80 when width <= 0), each bucket showing the
// phase that dominated it (blank when nothing was recorded there).
func (c *ChromeTrace) Timeline(width int) string {
	if width <= 0 {
		width = 80
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	maxProc, makespan := -1, 0.0
	for _, s := range c.spans {
		if engineSpan(s) {
			maxProc = max(maxProc, s.Proc)
			makespan = max(makespan, s.End)
		}
	}
	if maxProc < 0 {
		return "(no events)\n"
	}
	bucket := makespan / float64(width)
	if bucket == 0 {
		bucket = 1
	}
	// grid[proc*width+b][phase] is the time phase covered in bucket b.
	grid := make([][PhaseAbort]float64, (maxProc+1)*width)
	for _, s := range c.spans {
		if !engineSpan(s) {
			continue
		}
		row := grid[s.Proc*width : (s.Proc+1)*width]
		b1 := min(int(s.End/bucket), width-1)
		for b := max(int(s.Start/bucket), 0); b <= b1; b++ {
			lo := float64(b) * bucket
			if overlap := min(s.End, lo+bucket) - max(s.Start, lo); overlap > 0 {
				row[b][s.Phase] += overlap
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "virtual-time timeline (%.0f µs across %d buckets); C=compute P=pack T=transfer U=unpack .=wait\n",
		makespan, width)
	for p := 0; p <= maxProc; p++ {
		fmt.Fprintf(&sb, "proc %3d |", p)
		for _, cell := range grid[p*width : (p+1)*width] {
			best, bestW := byte(' '), 0.0
			for ph, w := range cell {
				if w > bestW {
					best, bestW = phaseLetters[ph], w
				}
			}
			sb.WriteByte(best)
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}
