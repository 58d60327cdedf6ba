package obs

import (
	"io"
	"runtime/metrics"
)

// Runtime health: the Go runtime signals that explain tail latency the
// request pipeline itself cannot — GC pauses stall every processor
// goroutine at once, scheduler latency delays barrier handoffs, heap
// growth forecasts the next pause. Sampled from runtime/metrics on the
// same scrape path as everything else, so one Prometheus query joins
// "p99 went up" with "because the heap doubled".

// runtimeSamples are the runtime/metrics series the sampler reads.
var runtimeSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// RuntimeHealth samples the Go runtime's health signals on demand —
// no background goroutine; WriteProm reads runtime/metrics at scrape
// time. Safe for concurrent use (each call reads into its own sample
// buffer).
type RuntimeHealth struct{}

// NewRuntimeHealth returns the sampler.
func NewRuntimeHealth() *RuntimeHealth { return &RuntimeHealth{} }

// histQuantile reads an approximate q-quantile off a runtime/metrics
// bucketed histogram: the upper bound of the bucket where the
// cumulative count crosses q. Returns 0 for an empty histogram;
// +Inf-bounded overflow falls back to the last finite bound.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank {
			// Buckets[i+1] is the bucket's upper bound; the histogram has
			// len(Counts)+1 boundaries.
			ub := h.Buckets[i+1]
			if ub > 1e300 { // +Inf overflow bucket
				ub = h.Buckets[i]
			}
			return ub
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// WriteProm samples the runtime and writes the health gauges in the
// Prometheus text exposition format: heap bytes, goroutine count, GC
// cycle counter, and p50/p99 of the runtime's GC-pause and
// scheduler-latency histograms. Every series is emitted on every
// scrape (no absent-vs-zero ambiguity).
func (r *RuntimeHealth) WriteProm(w io.Writer) error {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)

	p := NewPromWriter(w, true)
	u64 := func(s metrics.Sample) uint64 {
		if s.Value.Kind() == metrics.KindUint64 {
			return s.Value.Uint64()
		}
		return 0
	}
	hist := func(s metrics.Sample) *metrics.Float64Histogram {
		if s.Value.Kind() == metrics.KindFloat64Histogram {
			return s.Value.Float64Histogram()
		}
		return nil
	}

	p.Header("parbitonic_runtime_heap_bytes", "gauge", "Live heap object bytes (runtime/metrics).")
	p.Printf("parbitonic_runtime_heap_bytes %d\n", u64(samples[0]))

	p.Header("parbitonic_runtime_goroutines", "gauge", "Live goroutine count.")
	p.Printf("parbitonic_runtime_goroutines %d\n", u64(samples[1]))

	p.Header("parbitonic_runtime_gc_cycles_total", "counter", "Completed GC cycles.")
	p.Printf("parbitonic_runtime_gc_cycles_total %d\n", u64(samples[2]))

	p.Header("parbitonic_runtime_gc_pause_seconds", "gauge", "GC stop-the-world pause quantiles since process start.")
	gp := hist(samples[3])
	p.Printf("parbitonic_runtime_gc_pause_seconds{q=\"0.5\"} %g\n", sanitize(histQuantile(gp, 0.5)))
	p.Printf("parbitonic_runtime_gc_pause_seconds{q=\"0.99\"} %g\n", sanitize(histQuantile(gp, 0.99)))

	p.Header("parbitonic_runtime_sched_latency_seconds", "gauge", "Goroutine scheduling latency quantiles since process start.")
	sl := hist(samples[4])
	p.Printf("parbitonic_runtime_sched_latency_seconds{q=\"0.5\"} %g\n", sanitize(histQuantile(sl, 0.5)))
	p.Printf("parbitonic_runtime_sched_latency_seconds{q=\"0.99\"} %g\n", sanitize(histQuantile(sl, 0.99)))

	return p.Err()
}

// Snapshot returns the sampler's signals as a plain map for the sortz
// JSON payload.
func (r *RuntimeHealth) Snapshot() map[string]any {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := map[string]any{}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		out["heap_bytes"] = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		out["goroutines"] = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		out["gc_cycles"] = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		out["gc_pause_p99_s"] = sanitize(histQuantile(samples[3].Value.Float64Histogram(), 0.99))
	}
	if samples[4].Value.Kind() == metrics.KindFloat64Histogram {
		out["sched_latency_p99_s"] = sanitize(histQuantile(samples[4].Value.Float64Histogram(), 0.99))
	}
	return out
}
