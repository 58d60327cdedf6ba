package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/core"
	"parbitonic/internal/localsort"
	"parbitonic/internal/obs"
	"parbitonic/internal/verify"
)

// setupReps is how many times a run sets up from scratch; setup_s is
// the median, so one slow construction (the process's first, which
// also starts the shared kernel pool) does not set the figure.
const setupReps = 9

// warmCalls are untimed calls after set-up, before any timed window.
const warmCalls = 2

// engineConfig is the fixed engine shape every workload uses: native
// backend, smart bitonic, procs processors. Auto is never set, so the
// planner cannot move the measured shape.
func engineConfig(sink obs.Sink) parbitonic.Config {
	return parbitonic.Config{Processors: procs, Algorithm: parbitonic.SmartBitonic, Backend: parbitonic.Native, Obs: sink}
}

// sortBench holds one input and the engine that sorts it. Every call
// sorts a fresh copy of the pristine input into work; the copy and the
// output check run with the clock stopped.
type sortBench[E element.Elem] struct {
	input []E
	work  []E
	want  verify.Checksum
	eng   *parbitonic.EngineOf[E]
}

func newSortBench[E element.Elem](input []E) *sortBench[E] {
	return &sortBench[E]{input: input, work: make([]E, len(input)), want: verify.Sum(input)}
}

// close releases the engine's workers.
func (b *sortBench[E]) close() {
	if b.eng != nil {
		b.eng.Close()
		b.eng = nil
	}
}

// setup builds the engine setupReps times, each time timing
// NewEngineOf plus its first sort, and keeps the last engine. It
// returns the set-up times in seconds.
func (b *sortBench[E]) setup(rec *recorder) ([]float64, error) {
	secs := make([]float64, setupReps)
	for i := range secs {
		b.close()
		copy(b.work, b.input)
		debug.FreeOSMemory()
		t0 := time.Now()
		eng, err := parbitonic.NewEngineOf[E](engineConfig(nil))
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("new engine: %w", err)
		}
		b.eng = eng
		_, err = eng.Sort(b.work)
		t2 := time.Now()
		secs[i] = t2.Sub(t0).Seconds()
		if err == nil {
			err = checkSorted(b.work, b.want)
		}
		if err != nil {
			return nil, fmt.Errorf("first sort: %w", err)
		}
		root := rec.newID()
		rec.record(root, "parbitonic.new_engine", t0, t1, nil)
		rec.record(root, "parbitonic.first_sort", t1, t2, nil)
		rec.add(root, 0, "bench.setup", t0, t2, nil)
	}
	for range warmCalls {
		copy(b.work, b.input)
		if _, err := b.eng.Sort(b.work); err != nil {
			return nil, fmt.Errorf("warm-up sort: %w", err)
		}
	}
	return secs, nil
}

// loopStats is what a closed-loop window observed, with the tally of
// its checked calls.
type loopStats struct {
	window
	attempted int
	failed    int
	firstErr  error
}

func (s *loopStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// lat returns the wall time of every call, in ms.
func (s *loopStats) lat() []float64 {
	var out []float64
	for _, cs := range s.calls {
		for _, c := range cs {
			out = append(out, c.ms)
		}
	}
	return out
}

// loop is one caller's closed loop for d: copy the input, time one
// EngineOf.Sort, check the output, and between calls mark the chunk
// boundaries. With a recorder, each correct call is a root span
// carrying the Result counters.
func (b *sortBench[E]) loop(d time.Duration, rec *recorder) (loopStats, error) {
	var st loopStats
	runtime.GC()
	ch := chunker{start: time.Now()}
	if err := ch.mark(true); err != nil {
		return st, err
	}
	for deadline := ch.start.Add(d); time.Now().Before(deadline); {
		copy(b.work, b.input)
		t0 := time.Now()
		res, err := b.eng.Sort(b.work)
		t1 := time.Now()
		st.attempted++
		c := call{start: t0.Sub(ch.start), ms: msOf(t1.Sub(t0))}
		if err == nil {
			err = checkSorted(b.work, b.want)
		}
		if err != nil {
			st.fail(err)
		} else {
			c.keys = len(b.work)
			if rec != nil {
				rec.record(0, "parbitonic.sort", t0, t1, map[string]float64{
					"run_ms":     res.Time / 1e3,
					"compute_ms": res.ComputeTime / 1e3,
					"comm_ms":    res.CommTime() / 1e3,
					"remaps":     float64(res.Remaps),
					"volume":     float64(res.VolumeSent),
					"messages":   float64(res.MessagesSent),
				})
			}
		}
		st.calls = appendCall(st.calls, c)
		if err := ch.mark(false); err != nil {
			return st, err
		}
	}
	err := ch.mark(true)
	st.marks = ch.marks
	return st, err
}

// compile times core.Compile at the engine's shape setupReps times.
// The options mirror what NewEngineOf derives for native smart in the
// usual regime: the fused FullSort implementation.
func (b *sortBench[E]) compile(rec *recorder) error {
	n := len(b.input) / procs
	opts := core.Options{Algorithm: core.Smart, Compute: core.FullSort, Fused: true}
	for range setupReps {
		t0 := time.Now()
		_, err := core.Compile[E](procs, n, opts)
		rec.record(0, "core.compile", t0, time.Now(), nil)
		if err != nil {
			return fmt.Errorf("core.Compile: %w", err)
		}
	}
	return nil
}

// probeLayers times, round-robin for d, the calls the engine's layers
// are built from, each on this workload's data: one sort with an
// obs.Metrics sink attached against one without (alternating which
// goes first), localsort.SortScratch of one N/P share (smart's first
// local sort), and localsort.MergeRuns of P sorted runs totalling N/P
// keys (FullSort's per-remap merge). Every output is checked.
func (b *sortBench[E]) probeLayers(d time.Duration, rec *recorder, st *loopStats) error {
	sinkEng, err := parbitonic.NewEngineOf[E](engineConfig(obs.NewMetrics()))
	if err != nil {
		return fmt.Errorf("new engine with sink: %w", err)
	}
	defer sinkEng.Close()

	n := len(b.input) / procs
	share, scratch := make([]E, n), make([]E, n)
	shareSum := verify.Sum(b.input[:n])
	runs := make([]localsort.RunOf[E], procs)
	for i := range runs {
		r := append([]E(nil), b.input[i*n/procs:(i+1)*n/procs]...)
		localsort.Sort(r, true)
		runs[i] = localsort.RunOf[E]{Keys: r}
	}
	merged := make([]E, n)

	sorts := [2]struct {
		name string
		eng  *parbitonic.EngineOf[E]
	}{{"obs.sink_off", b.eng}, {"obs.sink_on", sinkEng}}
	check := func(err error) {
		st.attempted++
		if err != nil {
			st.fail(err)
		}
	}
	runtime.GC()
	for i, deadline := 0, time.Now().Add(d); time.Now().Before(deadline); i++ {
		root, start := rec.newID(), time.Now()
		for j := range sorts {
			s := sorts[(i+j)%2]
			copy(b.work, b.input)
			t0 := time.Now()
			_, err := s.eng.Sort(b.work)
			rec.record(root, s.name, t0, time.Now(), nil)
			if err == nil {
				err = checkSorted(b.work, b.want)
			}
			check(err)
		}
		rec.add(root, 0, "obs.sink_pair", start, time.Now(), nil)

		copy(share, b.input[:n])
		t0 := time.Now()
		localsort.SortScratch(share, true, scratch)
		rec.record(0, "localsort.sort", t0, time.Now(), nil)
		check(checkSorted(share, shareSum))

		t0 = time.Now()
		localsort.MergeRuns(merged, runs)
		rec.record(0, "localsort.merge_runs", t0, time.Now(), nil)
		check(checkSorted(merged, shareSum))
	}
	return nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
