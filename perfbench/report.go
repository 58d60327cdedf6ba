package main

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/obs"
)

// metricDef is a reported metric's name and unit; BENCHMARK.json at
// the repository root lists the same names and units.
type metricDef struct{ name, unit string }

// endToEndMetrics are what the untraced run reports, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_mkeys_s", "Mkeys/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// layerMetrics are what the traced run reports, on every workload.
var layerMetrics = []metricDef{
	{"parbitonic.sort_ms", "ms"},
	{"parbitonic.overhead_ms", "ms"},
	{"parbitonic.new_engine_ms", "ms"},
	{"parbitonic.first_sort_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"native.run_ms", "ms"},
	{"native.compute_ms", "ms"},
	{"native.comm_ms", "ms"},
	{"native.wait_ms", "ms"},
	{"core.remaps", "count"},
	{"core.volume_keys", "keys"},
	{"core.messages", "count"},
	{"core.bytes_moved_mib", "MiB"},
	{"localsort.sort_ms", "ms"},
	{"localsort.merge_runs_ms", "ms"},
	{"obs.sink_ms", "ms"},
	{"serve.request_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.batch_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.copyout_ms", "ms"},
	{"serve.gateway_ms", "ms"},
	{"serve.batch_size", "requests"},
	{"serve.pool_hit_ratio", "ratio"},
	{"serve.retries", "count"},
	{"serve.degraded", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"error_rate", "ratio"},
}

// line is one printed metric. n is the number of samples a statistic
// was taken over (0 for a single reading).
type line struct {
	name, unit string
	value      float64
	n          int
	note       string
}

// report collects a run's metrics and its checked-call tally.
type report struct {
	lines     []line
	attempted int
	failed    int
	firstErr  error
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	r.lines = append(r.lines, line{name, unit, v, n, note})
}

// count folds a loop's checked calls into the run's tally.
func (r *report) count(st loopStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	if r.firstErr == nil {
		r.firstErr = st.firstErr
	}
}

func (r *report) print() {
	for _, l := range r.lines {
		fmt.Printf("%-28s %14.6g %-8s", l.name, l.value, l.unit)
		if l.n > 0 {
			fmt.Printf(" n=%d", l.n)
		}
		if l.note != "" {
			fmt.Printf(" %s", l.note)
		}
		fmt.Println()
	}
}

// metric is one JSON metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result renders exactly the metrics in defs, refusing a missing,
// mislabelled or non-finite one.
func (r *report) result(defs []metricDef) (result, error) {
	out := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		i := slices.IndexFunc(r.lines, func(l line) bool { return l.name == d.name })
		if i < 0 {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		l := r.lines[i]
		if l.unit != d.unit || math.IsNaN(l.value) || math.IsInf(l.value, 0) {
			return out, fmt.Errorf("metric %s reads %v %s, want a finite value in %s", d.name, l.value, l.unit, d.unit)
		}
		out.Metrics[d.name] = metric{l.value, l.unit}
	}
	return out, nil
}

// keepFrac is the share of an end-to-end run's chunks that is
// reported: the least-stolen ones. The run observes window / keepFrac.
const keepFrac = 0.5

// endToEnd reports the untraced run's metrics from its set-up times
// and the least-stolen chunks of its timed loop. Every call of the
// loop counts towards the error rate.
func endToEnd(setup []float64, st loopStats, loopErr error) (*report, error) {
	if loopErr != nil {
		return nil, loopErr
	}
	rep := &report{}
	rep.count(st)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	calls, timed, steal := st.kept(keepFrac)
	_, observed, stealAll := st.kept(1)
	lat := make([]float64, len(calls))
	keys := 0
	for i, c := range calls {
		lat[i] = c.ms
		keys += c.keys
	}
	p50, n := percentile(lat, 50)
	p90, _ := percentile(lat, 90)
	rep.add("setup_s", "s", median(setup), len(setup), fmt.Sprintf("median of set-ups, range %.4g..%.4g", slices.Min(setup), slices.Max(setup)))
	rep.add("throughput_mkeys_s", "Mkeys/s", float64(keys)/timed.Seconds()/1e6, n,
		fmt.Sprintf("over %.3fs of %.3fs timed; host steal %.2f%% there, %.2f%% overall", timed.Seconds(), observed.Seconds(), 100*steal, 100*stealAll))
	rep.add("latency_p50_ms", "ms", p50, n, "")
	rep.add("latency_p90_ms", "ms", p90, n, "")
	rep.add("peak_rss_mib", "MiB", rss, 0, "VmHWM")
	rep.add("error_rate", "ratio", float64(st.failed)/float64(max(1, st.attempted)), st.attempted, fmt.Sprintf("%d failed", st.failed))
	return rep, nil
}

// runSort runs a sort workload: one reused engine, one caller.
func runSort[E element.Elem](input []E, window time.Duration, rec *recorder) (*report, error) {
	b := newSortBench(input)
	defer b.close()
	setup, err := b.setup(rec)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		st, err := b.loop(time.Duration(float64(window)/keepFrac), nil)
		return endToEnd(setup, st, err)
	}
	// The serve layer is measured on this workload's data too: one
	// client posting the whole input as one frame.
	sv := newServeBench([][]E{input}, 1, warmCalls)
	defer sv.close()
	if _, err := sv.setup(1, rec); err != nil {
		return nil, err
	}
	return layerRun(window, rec, b, sv, false)
}

// runServe runs the gateway workload: one reused gateway, procs
// closed-loop clients.
func runServe(bodies [][]uint32, window time.Duration, rec *recorder) (*report, error) {
	sv := newServeBench(bodies, procs, serveWarm)
	defer sv.close()
	setup, err := sv.setup(setupReps, rec)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		st, err := sv.loop(time.Duration(float64(window)/keepFrac), 0, nil)
		return endToEnd(setup, st, err)
	}
	// The engine layers are measured at the shape a two-request batch
	// runs at: both clients' requests coalesced into one run.
	b := newSortBench(slices.Concat(bodies[0], bodies[1]))
	defer b.close()
	if _, err := b.setup(rec); err != nil {
		return nil, err
	}
	return layerRun(window, rec, b, sv, true)
}

// layerRun is the traced run. It splits window in four: an untraced
// loop of the workload's own call (the reference for the trace
// overhead), the same loop traced, the traced loop of the other layer
// family (sort engine or gateway) on this workload's data, and the
// layer probes. It then derives the per-layer metrics from the spans.
// Every call counts here; steal is not filtered out.
func layerRun[E element.Elem](window time.Duration, rec *recorder, b *sortBench[E], sv *serveBench[E], servePrimary bool) (*report, error) {
	q := window / 4
	rep := &report{}
	var before, after serveCounters
	counted := func(st loopStats, err error) error {
		rep.count(st)
		return err
	}
	sortLoop := func() error { return counted(b.loop(q, rec)) }
	serveLoop := func() error {
		var err error
		if before, err = sv.scrape(); err != nil {
			return err
		}
		if err := counted(sv.loop(q, 0, rec)); err != nil {
			return err
		}
		after, err = sv.scrape()
		return err
	}
	var ref loopStats
	var err error
	root, first, second := "parbitonic.sort", sortLoop, serveLoop
	if servePrimary {
		root, first, second = "serve.request", serveLoop, sortLoop
		ref, err = sv.loop(q, 0, nil)
	} else {
		ref, err = b.loop(q, nil)
	}
	if err := counted(ref, err); err != nil {
		return nil, err
	}
	if err := first(); err != nil {
		return nil, err
	}
	if err := second(); err != nil {
		return nil, err
	}
	if err := b.compile(rec); err != nil {
		return nil, err
	}
	var probe loopStats
	if err := b.probeLayers(q, rec, &probe); err != nil {
		return nil, err
	}
	rep.count(probe)

	if err := sortLayers(rep, rec, b); err != nil {
		return nil, err
	}
	if err := serveLayers(rep, rec, before, after); err != nil {
		return nil, err
	}
	traced := rec.durations(root)
	refLat := ref.lat()
	rep.add("bench.trace_overhead_ratio", "ratio", median(traced)/median(refLat), len(traced),
		fmt.Sprintf("%s p50 traced / untraced (n=%d)", root, len(refLat)))
	rep.add("error_rate", "ratio", float64(rep.failed)/float64(max(1, rep.attempted)), rep.attempted, fmt.Sprintf("%d failed", rep.failed))
	return rep, nil
}

// sortLayers derives the engine-side metrics from the traced sorts.
// Each remainder is derived per call and must not be negative; the
// remap counters must read the same on every call.
func sortLayers[E element.Elem](rep *report, rec *recorder, b *sortBench[E]) error {
	sorts := rec.named("parbitonic.sort")
	if len(sorts) == 0 {
		return fmt.Errorf("no traced sort completed")
	}
	var overhead, run, compute, comm, wait []float64
	first := sorts[0].Attrs
	for _, s := range sorts {
		a := s.Attrs
		for _, k := range []string{"remaps", "volume", "messages"} {
			if a[k] != first[k] {
				return fmt.Errorf("core counter %s differs between calls: %v and %v", k, first[k], a[k])
			}
		}
		o, err := remainder("parbitonic.overhead_ms", s.ms(), a["run_ms"])
		if err != nil {
			return err
		}
		w, err := remainder("native.wait_ms", a["run_ms"], a["compute_ms"], a["comm_ms"])
		if err != nil {
			return err
		}
		overhead, wait = append(overhead, o), append(wait, w)
		run, compute, comm = append(run, a["run_ms"]), append(compute, a["compute_ms"]), append(comm, a["comm_ms"])
	}
	n := len(sorts)
	rep.add("parbitonic.sort_ms", "ms", median(rec.durations("parbitonic.sort")), n, "EngineOf.Sort")
	rep.add("parbitonic.overhead_ms", "ms", median(overhead), n, "sort - Result.Time")
	addMedian(rep, rec, "parbitonic.new_engine_ms", "parbitonic.new_engine")
	addMedian(rep, rec, "parbitonic.first_sort_ms", "parbitonic.first_sort")
	addMedian(rep, rec, "core.compile_ms", "core.compile")
	rep.add("native.run_ms", "ms", median(run), n, "Result.Time")
	rep.add("native.compute_ms", "ms", median(compute), n, "Result.ComputeTime")
	rep.add("native.comm_ms", "ms", median(comm), n, "pack+transfer+unpack")
	rep.add("native.wait_ms", "ms", median(wait), n, "run - compute - comm")

	lgN, lgP := bits.Len(uint(len(b.input)))-1, bits.Len(procs)-1
	var pred parbitonic.Prediction
	for _, p := range parbitonic.Predict(lgN, lgP, true, nil) {
		if p.Strategy == "smart" {
			pred = p
		}
	}
	rep.add("core.remaps", "count", first["remaps"], n, fmt.Sprintf("per processor; predicted %d", pred.Remaps))
	rep.add("core.volume_keys", "keys", first["volume"], n, fmt.Sprintf("per processor; predicted %d", pred.Volume))
	rep.add("core.messages", "count", first["messages"], n, fmt.Sprintf("per processor; predicted %d", pred.Msg))
	moved := first["volume"] * float64(element.Width[E]()*procs) / (1 << 20)
	rep.add("core.bytes_moved_mib", "MiB", moved, n, "computed: volume x width x P")

	addMedian(rep, rec, "localsort.sort_ms", "localsort.sort")
	addMedian(rep, rec, "localsort.merge_runs_ms", "localsort.merge_runs")

	// The sink cost is paired: each round sorts the same input once
	// with the sink and once without, under one parent.
	on := map[uint64]float64{}
	for _, s := range rec.named("obs.sink_on") {
		on[s.Parent] = s.ms()
	}
	var diff []float64
	for _, s := range rec.named("obs.sink_off") {
		if v, ok := on[s.Parent]; ok {
			diff = append(diff, v-s.ms())
		}
	}
	rep.add("obs.sink_ms", "ms", median(diff), len(diff), "paired sort with sink - without")
	return nil
}

// serveLayers derives the serve-side metrics from the traced requests
// and the gateway counters read before and after them.
func serveLayers(rep *report, rec *recorder, before, after serveCounters) error {
	req := rec.durations("serve.request")
	if len(req) == 0 {
		return fmt.Errorf("no traced request completed")
	}
	reqMean := mean(req)
	stages := make([]float64, obs.NumStages)
	for st := range stages {
		stages[st] = stageMeanMS(before, after, obs.Stage(st))
	}
	gw, err := remainder("serve.gateway_ms", reqMean, stages...)
	if err != nil {
		return err
	}
	n := len(req)
	rep.add("serve.request_ms", "ms", reqMean, n, "mean of ServeHTTP spans")
	rep.add("serve.queue_ms", "ms", stages[obs.StageQueue], n, "mean")
	rep.add("serve.batch_ms", "ms", stages[obs.StageBatch], n, "mean")
	rep.add("serve.engine_ms", "ms", stages[obs.StageEngine], n, "mean")
	rep.add("serve.copyout_ms", "ms", stages[obs.StageCopyOut], n, "mean")
	rep.add("serve.gateway_ms", "ms", gw, n, "request - stage sum")
	batches := after.batches - before.batches
	rep.add("serve.batch_size", "requests", (after.ok-before.ok)/batches, int(batches), "requests / batches")
	rep.add("serve.pool_hit_ratio", "ratio", (after.hits-before.hits)/(after.gets-before.gets), int(after.gets-before.gets), "hits / gets")
	rep.add("serve.retries", "count", after.retries-before.retries, n, "over the traced requests")
	rep.add("serve.degraded", "count", after.degraded-before.degraded, n, "over the traced requests")
	return nil
}

// addMedian reports the median duration of the spans called span.
func addMedian(rep *report, rec *recorder, name, span string) {
	d := rec.durations(span)
	rep.add(name, "ms", median(d), len(d), "")
}
