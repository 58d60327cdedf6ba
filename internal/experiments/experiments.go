// Package experiments regenerates every table and figure of the
// paper's Chapter 5 evaluation (plus the Chapter 3/4 analyses) on the
// simulated machine, printing the measured model values next to the
// paper's Meiko CS-2 measurements so the shapes can be compared
// directly. See DESIGN.md §4 for the experiment index.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/asciichart"
	"parbitonic/internal/intbits"
	"parbitonic/internal/logp"
	"parbitonic/internal/schedule"
	"parbitonic/internal/svgchart"
	"parbitonic/internal/workload"
)

// Config scales the experiments. Scale divides the paper's key counts
// by 2^Scale so the suite can run quickly (Scale 0 reproduces the
// paper's sizes: 128K..1M keys per processor).
type Config struct {
	Seed  uint64
	Scale int
	// Elem selects the element type the element-parameterized
	// experiments measure natively (cmd/experiments -keytype); the
	// zero value is u32, the paper's key type.
	Elem element.Type
}

// DefaultConfig runs at 1/64 of the paper's sizes — every shape
// (orderings, ratios, crossovers) is preserved because the model is
// linear in n beyond the fixed costs.
func DefaultConfig() Config { return Config{Seed: 1996, Scale: 6} }

// Table is a rendered experiment: an ID matching the paper, a title,
// column headers, rows, and notes about how to read the comparison.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// ChartYCols marks the columns to plot against column 0 when the
	// experiment corresponds to a figure; empty means no chart.
	ChartYCols []int
	ChartYLab  string
}

// Chart builds the ASCII rendering of the experiment's figure, or nil
// if the experiment is table-only.
func (t *Table) Chart() *asciichart.Chart {
	if len(t.ChartYCols) == 0 {
		return nil
	}
	c := &asciichart.Chart{Title: t.ID + " — " + t.Title, YLabel: t.ChartYLab}
	for _, row := range t.Rows {
		c.XLabels = append(c.XLabels, row[0])
	}
	for _, col := range t.ChartYCols {
		s := asciichart.Series{Name: t.Columns[col]}
		for _, row := range t.Rows {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				return nil
			}
			s.Y = append(s.Y, v)
		}
		c.Series = append(c.Series, s)
	}
	return c
}

// SVG builds the SVG rendering of the experiment's figure, or nil for
// table-only experiments.
func (t *Table) SVG() *svgchart.Chart {
	ac := t.Chart()
	if ac == nil {
		return nil
	}
	c := &svgchart.Chart{Title: ac.Title, YLabel: ac.YLabel, XLabels: ac.XLabels}
	for _, s := range ac.Series {
		c.Series = append(c.Series, svgchart.Series{Name: s.Name, Y: s.Y})
	}
	return c
}

// Render writes the table as GitHub-flavoured markdown.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "> %s\n", n)
	}
	fmt.Fprintln(w)
}

// paperSizesK are the paper's keys-per-processor sweep in units of K
// (2^10) keys: 128K, 256K, 512K, 1024K.
var paperSizesK = []int{128, 256, 512, 1024}

func (c Config) keysPerProc(kKeys int) int {
	n := (kKeys << 10) >> uint(c.Scale)
	if n < 64 {
		n = 64
	}
	return n
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func sec(v float64) string { return fmt.Sprintf("%.2f", v/1e6) } // model µs -> s

// run sorts a fresh uniform workload and returns the result.
func (c Config) run(p, n int, cfg parbitonic.Config) parbitonic.Result {
	cfg.Processors = p
	keys := workload.Keys(workload.Uniform31, p*n, c.Seed)
	res, err := parbitonic.Sort(keys, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			panic("experiments: output not sorted")
		}
	}
	return res
}

// paper51/52 hold the Meiko measurements of Tables 5.1 and 5.2
// (µs per key and total seconds on 32 processors).
var paper51 = map[int][3]float64{ // keys/proc(K) -> blocked-merge, cyclic-blocked, smart
	128:  {1.07, 0.68, 0.52},
	256:  {1.19, 0.75, 0.51},
	512:  {1.26, 0.89, 0.53},
	1024: {1.25, 0.86, 0.59},
}

var paper52 = map[int][3]float64{
	128:  {5.52, 2.85, 2.18},
	256:  {10.04, 6.35, 4.26},
	512:  {21.14, 14.96, 8.95},
	1024: {42.03, 28.58, 20.01},
}

// Table51 reproduces Table 5.1 / Figure 5.2: execution time per key for
// the three bitonic implementations on 32 processors.
func Table51(c Config) *Table {
	t := &Table{
		ID:    "Table 5.1 / Figure 5.2",
		Title: "execution time per key (µs), 32 processors",
		Columns: []string{"keys/proc", "blocked-merge (model)", "cyclic-blocked (model)", "smart (model)",
			"blocked-merge (paper)", "cyclic-blocked (paper)", "smart (paper)"},
		ChartYCols: []int{3, 2, 1},
		ChartYLab:  "model µs/key",
		Notes: []string{
			"Shape to match: smart < cyclic-blocked < blocked-merge at every size; smart ~2x faster than blocked-merge.",
			fmt.Sprintf("Model sizes are the paper's divided by 2^%d; per-key times are size-stable apart from the cache term.", c.Scale),
		},
	}
	const p = 32
	for _, k := range paperSizesK {
		n := c.keysPerProc(k)
		bm := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.BlockedMergeBitonic})
		cb := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.CyclicBlockedBitonic})
		sm := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
		pp := paper51[k]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dK", k),
			f2(bm.TimePerKey()), f2(cb.TimePerKey()), f2(sm.TimePerKey()),
			f2(pp[0]), f2(pp[1]), f2(pp[2]),
		})
	}
	return t
}

// Table52 reproduces Table 5.2 / Figure 5.1: total execution time. At
// Scale > 0 the model seconds are scaled back up by 2^Scale for
// comparability (the model is linear in n at these sizes).
func Table52(c Config) *Table {
	t := &Table{
		ID:    "Table 5.2 / Figure 5.1",
		Title: "total execution time (s), 32 processors",
		Columns: []string{"keys/proc", "blocked-merge (model)", "cyclic-blocked (model)", "smart (model)",
			"blocked-merge (paper)", "cyclic-blocked (paper)", "smart (paper)"},
		Notes: []string{"Model totals are rescaled by 2^Scale to the paper's key counts."},
	}
	const p = 32
	mult := float64(int(1) << uint(c.Scale))
	for _, k := range paperSizesK {
		n := c.keysPerProc(k)
		bm := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.BlockedMergeBitonic})
		cb := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.CyclicBlockedBitonic})
		sm := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
		pp := paper52[k]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dK", k),
			sec(bm.Time * mult), sec(cb.Time * mult), sec(sm.Time * mult),
			f2(pp[0]), f2(pp[1]), f2(pp[2]),
		})
	}
	return t
}

// Fig53 reproduces Figure 5.3: total sorting time and speedup for 1M
// keys on 2..32 processors (smart algorithm).
func Fig53(c Config) *Table {
	t := &Table{
		ID:         "Figure 5.3",
		Title:      "sorting 1M keys on 2..32 processors (smart)",
		Columns:    []string{"P", "total time (model s)", "speedup vs P=2", "parallel efficiency"},
		ChartYCols: []int{2},
		ChartYLab:  "speedup vs P=2",
		Notes: []string{
			"Shape to match: monotone speedup with decreasing efficiency as P grows (communication share rises).",
		},
	}
	total := (1 << 20) >> uint(c.Scale)
	var base float64
	for _, p := range []int{2, 4, 8, 16, 32} {
		n := total / p
		res := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
		if p == 2 {
			base = res.Time
		}
		speed := base / res.Time
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p), sec(res.Time), f2(speed), f2(speed / float64(p) * 2),
		})
	}
	return t
}

// Fig54 reproduces Figure 5.4: the communication/computation breakdown
// of the smart algorithm on 16 processors across sizes.
func Fig54(c Config) *Table {
	t := &Table{
		ID:         "Figure 5.4",
		Title:      "communication vs computation breakdown (smart, 16 processors)",
		Columns:    []string{"keys/proc", "compute µs/key", "comm µs/key", "compute %"},
		ChartYCols: []int{1, 2},
		ChartYLab:  "model µs/key",
		Notes: []string{
			"Shape to match: computation dominates and its share grows with n (cache effects).",
		},
	}
	const p = 16
	for _, k := range paperSizesK {
		n := c.keysPerProc(k)
		res := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
		total := res.ComputeTime + res.CommTime()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dK", k),
			f3(res.ComputeTime / float64(p*n)),
			f3(res.CommTime() / float64(p*n)),
			fmt.Sprintf("%.0f%%", res.ComputeTime/total*100),
		})
	}
	return t
}

var paper53 = map[int][2]float64{ // keys/proc(K) -> short, long (µs/key)
	128:  {13.23, 0.98},
	256:  {13.25, 1.09},
	512:  {13.26, 1.12},
	1024: {13.74, 1.21},
}

// Table53 reproduces Table 5.3 / Figure 5.5: communication time per key
// for the short- and long-message versions on 16 processors.
func Table53(c Config) *Table {
	t := &Table{
		ID:    "Table 5.3 / Figure 5.5",
		Title: "communication time per key (µs), 16 processors",
		Columns: []string{"keys/proc", "short (model)", "long (model)", "short/long (model)",
			"short (paper)", "long (paper)", "short/long (paper)"},
		ChartYCols: []int{1, 2},
		ChartYLab:  "comm µs/key",
		Notes: []string{
			"Shape to match: long messages win by an order of magnitude.",
			"The long-message version here keeps pack/unpack separate, as §5.4 specifies.",
		},
	}
	const p = 16
	for _, k := range paperSizesK {
		n := c.keysPerProc(k)
		short := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic, Sim: parbitonic.SimOptions{ShortMessages: true}})
		long := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
		sPer := short.CommTime() / float64(p*n)
		lPer := long.CommTime() / float64(p*n)
		pp := paper53[k]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dK", k),
			f2(sPer), f2(lPer), f2(sPer / lPer),
			f2(pp[0]), f2(pp[1]), f2(pp[0] / pp[1]),
		})
	}
	return t
}

var paper54 = map[int][3]float64{ // keys/proc(K) -> pack, transfer, unpack
	128:  {0.35, 0.15, 0.15},
	256:  {0.37, 0.15, 0.15},
	512:  {0.38, 0.16, 0.14},
	1024: {0.38, 0.16, 0.13},
}

// Table54 reproduces Table 5.4 / Figure 5.6: the pack/transfer/unpack
// breakdown of the long-message communication phase on 16 processors.
func Table54(c Config) *Table {
	t := &Table{
		ID:    "Table 5.4 / Figure 5.6",
		Title: "long-message communication breakdown, µs per key, 16 processors",
		Columns: []string{"keys/proc", "pack (model)", "transfer (model)", "unpack (model)",
			"pack (paper)", "transfer (paper)", "unpack (paper)"},
		ChartYCols: []int{1, 2, 3},
		ChartYLab:  "µs/key",
		Notes: []string{
			"Shape to match: packing and unpacking dominate the long-message communication time; the wire transfer itself is small.",
		},
	}
	const p = 16
	for _, k := range paperSizesK {
		n := c.keysPerProc(k)
		res := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
		pp := paper54[k]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dK", k),
			f3(res.PackTime / float64(p*n)), f3(res.TransferTime / float64(p*n)), f3(res.UnpackTime / float64(p*n)),
			f2(pp[0]), f2(pp[1]), f2(pp[2]),
		})
	}
	return t
}

// Fig57 and Fig58 reproduce Figures 5.7/5.8: bitonic vs radix vs sample
// sort per-key times on 16 and 32 processors.
func Fig57(c Config) *Table { return compareSorts(c, 16, "Figure 5.7") }
func Fig58(c Config) *Table { return compareSorts(c, 32, "Figure 5.8") }

func compareSorts(c Config, p int, id string) *Table {
	t := &Table{
		ID:         id,
		Title:      fmt.Sprintf("bitonic vs radix vs sample sort, µs per key, %d processors", p),
		Columns:    []string{"keys/proc", "bitonic (model)", "radix (model)", "sample (model)", "bitonic beats radix?"},
		ChartYCols: []int{1, 2, 3},
		ChartYLab:  "model µs/key",
		Notes: []string{
			"Shape to match: sample sort fastest overall; bitonic beats radix for small per-processor counts and loses for large ones (the crossover of §5.5).",
			"Bitonic runs fully fused (FullSort) where the usual regime lgP(lgP+1)/2 <= lg n holds; at reduced scales the regime boundary can fall inside the sweep and shows as a step in the bitonic column. At the paper's true sizes the regime holds throughout.",
		},
	}
	// Extend the sweep downward to show the small-n regime where bitonic
	// wins (the paper's plots start at 16K keys/processor). Sizes that
	// collapse together after scaling are skipped.
	seen := map[int]bool{}
	for _, k := range append([]int{16, 32, 64}, paperSizesK...) {
		n := c.keysPerProc(k)
		if seen[n] {
			continue
		}
		seen[n] = true
		bi := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic, Sim: parbitonic.SimOptions{FusePackUnpack: true}})
		ra := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.RadixSort})
		sa := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SampleSort})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dK", k),
			f2(bi.TimePerKey()), f2(ra.TimePerKey()), f2(sa.TimePerKey()),
			fmt.Sprintf("%v", bi.Time < ra.Time),
		})
	}
	return t
}

// AnalysisRVM reproduces the §3.4.2/§3.4.3 metric tables: remaps R,
// per-processor volume V and messages M for the three remapping
// strategies, analytically and as measured by the simulator.
func AnalysisRVM(c Config) *Table {
	lgP := 4
	n := c.keysPerProc(256)
	lgn := intbits.Log2(n)
	lgN := lgn + lgP
	t := &Table{
		ID:      "§3.4 analysis",
		Title:   fmt.Sprintf("communication metrics per processor (P=16, n=%d)", n),
		Columns: []string{"strategy", "R (analytic)", "V (analytic)", "M (analytic)", "R (measured)", "V (measured)", "M (measured)"},
		Notes: []string{
			"Smart minimizes R and V; blocked minimizes M — §3.4.3's observation that no strategy wins every metric.",
		},
	}
	type alg struct {
		m   logp.Metrics
		cfg parbitonic.Config
	}
	algs := []alg{
		{logp.Blocked(lgP, n), parbitonic.Config{Algorithm: parbitonic.BlockedMergeBitonic}},
		{logp.CyclicBlocked(lgP, n), parbitonic.Config{Algorithm: parbitonic.CyclicBlockedBitonic}},
		{logp.Smart(lgN, lgP), parbitonic.Config{Algorithm: parbitonic.SmartBitonic}},
	}
	for _, a := range algs {
		res := c.run(1<<uint(lgP), n, a.cfg)
		// The blocked strategy's "remaps" are its pairwise exchange
		// steps, which the machine counts as messages.
		measuredR := res.Remaps
		if a.cfg.Algorithm == parbitonic.BlockedMergeBitonic {
			measuredR = res.MessagesSent
		}
		t.Rows = append(t.Rows, []string{
			a.m.Name,
			fmt.Sprintf("%d", a.m.R), fmt.Sprintf("%d", a.m.V), fmt.Sprintf("%d", a.m.M),
			fmt.Sprintf("%d", measuredR), fmt.Sprintf("%d", res.VolumeSent), fmt.Sprintf("%d", res.MessagesSent),
		})
	}
	return t
}

// AblationShift reproduces the Lemma 5 comparison: total transferred
// volume per processor under the four remap-shifting strategies.
func AblationShift(c Config) *Table {
	t := &Table{
		ID:      "Lemma 5 ablation",
		Title:   "per-processor volume by remap-shift strategy",
		Columns: []string{"lgN", "lgP", "head", "tail", "middle1", "middle2"},
		Notes:   []string{"Shape to match: tail <= head < middle1 and tail <= middle2 whenever n >= P²."},
	}
	for _, d := range [][2]int{{16, 4}, {18, 5}, {20, 4}, {14, 3}} {
		lgN, lgP := d[0], d[1]
		n := 1 << uint(lgN-lgP)
		row := []string{fmt.Sprintf("%d", lgN), fmt.Sprintf("%d", lgP)}
		for _, s := range []schedule.Strategy{schedule.Head, schedule.Tail, schedule.Middle1, schedule.Middle2} {
			row = append(row, fmt.Sprintf("%d", schedule.Volume(schedule.New(lgN, lgP, s), n)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// AblationCompute reproduces the Chapter 4 claim: replacing the
// compare-exchange simulation with linear sorts cuts the local
// computation substantially.
func AblationCompute(c Config) *Table {
	t := &Table{
		ID:      "Chapter 4 ablation",
		Title:   "local computation: simulated steps vs optimized sorts (smart, 16 processors)",
		Columns: []string{"keys/proc", "simulated compute µs/key", "optimized compute µs/key", "speedup"},
		Notes:   []string{"Shape to match: the optimized computation is several times cheaper (O(n) merges vs O(n lg n) step simulation)."},
	}
	const p = 16
	for _, k := range []int{128, 1024} {
		n := c.keysPerProc(k)
		sim := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic, Sim: parbitonic.SimOptions{SimulateSteps: true}})
		opt := c.run(p, n, parbitonic.Config{Algorithm: parbitonic.SmartBitonic})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dK", k),
			f3(sim.ComputeTime / float64(p*n)), f3(opt.ComputeTime / float64(p*n)),
			f2(sim.ComputeTime / opt.ComputeTime),
		})
	}
	return t
}

// Experiment is one experiment of the suite: the ID its table carries,
// so a caller can select experiments before paying for their runs,
// and the function that runs it.
type Experiment struct {
	ID  string
	Run func(Config) *Table
}

// Suite lists the reproduction's experiments in paper order, then the
// native and service measurements.
var Suite = []Experiment{
	{"Table 5.1 / Figure 5.2", Table51}, {"Table 5.2 / Figure 5.1", Table52},
	{"Figure 5.3", Fig53}, {"Figure 5.4", Fig54},
	{"Table 5.3 / Figure 5.5", Table53}, {"Table 5.4 / Figure 5.6", Table54},
	{"Figure 5.7", Fig57}, {"Figure 5.8", Fig58},
	{"§3.4 analysis", AnalysisRVM}, {"Lemma 5 ablation", AblationShift},
	{"Chapter 4 ablation", AblationCompute}, {"Chapter 7 what-if", FutureWorkOverlap},
	{"Native throughput", NativeThroughput}, {"Element width", ElemWidth},
	{"Serve load", ServeLoad},
}

// Autotuned is the autotuned-vs-fixed race, which measures wall clock
// for seconds and so runs only on request.
var Autotuned = Experiment{"Autotuned vs fixed", AutotunedVsFixed}

// FutureWorkOverlap quantifies the thesis's Chapter 7 suggestion to
// "overlap computation and communication": from a traced run, a
// processor that could fully hide communication behind computation
// would be busy for max(compute, comm) instead of compute + comm. The
// table reports the resulting lower bound on total time per algorithm
// and the potential saving.
func FutureWorkOverlap(c Config) *Table {
	t := &Table{
		ID:      "Chapter 7 what-if",
		Title:   "potential gain from overlapping communication with computation",
		Columns: []string{"algorithm", "measured (model s)", "overlap bound (model s)", "potential saving"},
		Notes: []string{
			"Bound: per processor, busy time max(compute, comm) instead of compute+comm; barriers unchanged.",
			"Communication-heavy algorithms have the most to gain — the same conclusion the thesis draws when listing overlap as future work.",
		},
	}
	const p = 16
	n := c.keysPerProc(256)
	for _, alg := range []parbitonic.Algorithm{
		parbitonic.SmartBitonic, parbitonic.CyclicBlockedBitonic, parbitonic.BlockedMergeBitonic,
	} {
		res := c.run(p, n, parbitonic.Config{Algorithm: alg})
		comm := res.CommTime()
		comp := res.ComputeTime
		bound := res.Time - (comp + comm) + maxF(comp, comm)
		t.Rows = append(t.Rows, []string{
			alg.String(),
			fmt.Sprintf("%.4f", res.Time/1e6), fmt.Sprintf("%.4f", bound/1e6),
			fmt.Sprintf("%.0f%%", (1-bound/res.Time)*100),
		})
	}
	return t
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
