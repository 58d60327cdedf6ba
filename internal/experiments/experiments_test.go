package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// fastConfig keeps test runtimes low while preserving every shape.
func fastConfig() Config { return Config{Seed: 7, Scale: 9} }

func cell(t *Table, row, col int) float64 {
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		panic(err)
	}
	return v
}

func TestTable51Ordering(t *testing.T) {
	tab := Table51(fastConfig())
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(tab.Rows))
	}
	for r := range tab.Rows {
		bm, cb, sm := cell(tab, r, 1), cell(tab, r, 2), cell(tab, r, 3)
		if !(sm < cb && cb < bm) {
			t.Errorf("row %d: smart=%v cyclic=%v blocked=%v — paper ordering violated", r, sm, cb, bm)
		}
		if ratio := bm / sm; ratio < 1.5 || ratio > 3.5 {
			t.Errorf("row %d: blocked/smart ratio %.2f outside the paper's ~2x regime", r, ratio)
		}
	}
}

func TestTable52ConsistentWithTable51(t *testing.T) {
	cfg := fastConfig()
	t51, t52 := Table51(cfg), Table52(cfg)
	// total = perkey * N with N = 32 * keysPerProc * 2^scale (model
	// totals are rescaled): ratios across algorithms must match.
	for r := range t52.Rows {
		r51 := cell(t51, r, 1) / cell(t51, r, 3)
		r52 := cell(t52, r, 1) / cell(t52, r, 3)
		if diff := r51/r52 - 1; diff > 0.25 || diff < -0.25 {
			t.Errorf("row %d: per-key and total ratios disagree: %v vs %v", r, r51, r52)
		}
	}
}

func TestFig53SpeedupShape(t *testing.T) {
	tab := Fig53(fastConfig())
	prev := 0.0
	for r := range tab.Rows {
		s := cell(tab, r, 2)
		if s < prev {
			t.Errorf("speedup not monotone at row %d: %v after %v", r, s, prev)
		}
		prev = s
	}
	// Efficiency must decay.
	if first, last := cell(tab, 0, 3), cell(tab, len(tab.Rows)-1, 3); last >= first {
		t.Errorf("efficiency should decrease with P: %v -> %v", first, last)
	}
}

func TestFig54ComputationDominates(t *testing.T) {
	tab := Fig54(Config{Seed: 7, Scale: 6})
	for r := range tab.Rows {
		comp, comm := cell(tab, r, 1), cell(tab, r, 2)
		if comp <= comm {
			t.Errorf("row %d: computation (%v) should dominate communication (%v)", r, comp, comm)
		}
	}
}

func TestTable53LongBeatsShortByOrderOfMagnitude(t *testing.T) {
	tab := Table53(fastConfig())
	for r := range tab.Rows {
		ratio := cell(tab, r, 3)
		if ratio < 8 {
			t.Errorf("row %d: short/long ratio %v below an order of magnitude", r, ratio)
		}
	}
}

func TestTable54PackUnpackDominate(t *testing.T) {
	tab := Table54(Config{Seed: 7, Scale: 6})
	for r := range tab.Rows {
		pack, transfer, unpack := cell(tab, r, 1), cell(tab, r, 2), cell(tab, r, 3)
		if pack+unpack <= transfer {
			t.Errorf("row %d: pack+unpack (%v) should dominate transfer (%v)", r, pack+unpack, transfer)
		}
	}
}

func TestFig57And58Shapes(t *testing.T) {
	for _, tab := range []*Table{Fig57(Config{Seed: 7, Scale: 4}), Fig58(Config{Seed: 7, Scale: 4})} {
		sawBitonicWin, sawRadixWin := false, false
		for r := range tab.Rows {
			bi, ra, sa := cell(tab, r, 1), cell(tab, r, 2), cell(tab, r, 3)
			if r >= len(tab.Rows)-4 && (sa >= bi || sa >= ra) {
				t.Errorf("%s row %d: sample sort (%v) should be fastest (bitonic %v, radix %v)", tab.ID, r, sa, bi, ra)
			}
			if bi < ra {
				sawBitonicWin = true
			} else {
				sawRadixWin = true
			}
		}
		if !sawBitonicWin || !sawRadixWin {
			t.Errorf("%s: expected a bitonic-vs-radix crossover (bitonic wins small n, radix wins large n): bitonicWin=%v radixWin=%v",
				tab.ID, sawBitonicWin, sawRadixWin)
		}
		// Crossover direction: bitonic wins first, radix wins last.
		if first, last := cell(tab, 0, 1) < cell(tab, 0, 2), cell(tab, len(tab.Rows)-1, 1) < cell(tab, len(tab.Rows)-1, 2); !first || last {
			t.Errorf("%s: crossover direction wrong (first bitonicWin=%v, last bitonicWin=%v)", tab.ID, first, last)
		}
	}
}

func TestAnalysisRVMConsistency(t *testing.T) {
	tab := AnalysisRVM(fastConfig())
	for r := range tab.Rows {
		for c := 1; c <= 3; c++ {
			if tab.Rows[r][c] != tab.Rows[r][c+3] {
				t.Errorf("row %d (%s): analytic %s=%s, measured %s", r, tab.Rows[r][0],
					tab.Columns[c], tab.Rows[r][c], tab.Rows[r][c+3])
			}
		}
	}
}

func TestAblationShiftOrdering(t *testing.T) {
	tab := AblationShift(fastConfig())
	for r := range tab.Rows {
		head, tail, m1, m2 := cell(tab, r, 2), cell(tab, r, 3), cell(tab, r, 4), cell(tab, r, 5)
		if tail > head || tail > m2 {
			t.Errorf("row %d: tail=%v should be minimal (head=%v, m2=%v)", r, tail, head, m2)
		}
		if m1 < head {
			t.Errorf("row %d: middle1=%v should not beat head=%v", r, m1, head)
		}
	}
}

func TestAblationComputeSpeedup(t *testing.T) {
	tab := AblationCompute(fastConfig())
	for r := range tab.Rows {
		if s := cell(tab, r, 3); s < 1.5 {
			t.Errorf("row %d: optimized computation speedup %v too small", r, s)
		}
	}
}

func TestAllRunsAndRenders(t *testing.T) {
	var sb strings.Builder
	for _, e := range Suite {
		tab := e.Run(fastConfig())
		if tab.ID != e.ID {
			t.Errorf("suite lists %q, its table says %q: -only would select by the wrong name", e.ID, tab.ID)
		}
		if tab.ID == "" || len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Errorf("degenerate table %+v", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s: ragged row %v", tab.ID, row)
			}
		}
		tab.Render(&sb)
	}
	out := sb.String()
	for _, want := range []string{"Table 5.1", "Table 5.2", "Figure 5.3", "Figure 5.4", "Table 5.3", "Table 5.4", "Figure 5.7", "Figure 5.8", "§3.4", "Lemma 5", "Chapter 4", "Chapter 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestFutureWorkOverlapBounds(t *testing.T) {
	tab := FutureWorkOverlap(fastConfig())
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 algorithms, got %d", len(tab.Rows))
	}
	for r := range tab.Rows {
		measured, bound := cell(tab, r, 1), cell(tab, r, 2)
		if bound > measured || bound <= 0 {
			t.Errorf("row %d: bound %v not in (0, measured=%v]", r, bound, measured)
		}
	}
}
