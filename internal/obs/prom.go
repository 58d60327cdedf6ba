package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// sense: an observation v lands in the first bucket whose upper bound
// is >= v, and one above every bound lands only in the implicit +Inf
// bucket. Build one with NewHistogram. Not safe for concurrent use;
// owners lock around it.
type Histogram struct {
	bounds []float64 // ascending upper bounds, shared and read-only
	counts []uint64  // counts[i] = observations in (bounds[i-1], bounds[i]]; the last slot is +Inf
	sum    float64
	count  uint64
}

// NewHistogram returns an empty histogram over the ascending upper
// bounds, which it keeps without copying.
func NewHistogram(bounds []float64) Histogram {
	return Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.count++
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// PromWriter writes the Prometheus text exposition format (version
// 0.0.4). It latches the first write error: later writes are dropped
// and Err reports it. A writer made without headers drops the HELP and
// TYPE lines, for an exposition assembled from several writers where
// a metric name may carry only one TYPE line (the serve Gateway's
// per-element servers).
type PromWriter struct {
	w       io.Writer
	headers bool
	err     error
}

// NewPromWriter returns a writer on w; headers selects whether Header
// writes anything.
func NewPromWriter(w io.Writer, headers bool) *PromWriter {
	return &PromWriter{w: w, headers: headers}
}

// Err returns the first write error, or nil.
func (p *PromWriter) Err() error { return p.err }

// Header writes the HELP and TYPE lines of one metric family.
func (p *PromWriter) Header(name, typ, help string) {
	if p.headers {
		p.Printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
}

// Printf writes one sample line.
func (p *PromWriter) Printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// Hist writes one histogram series: a cumulative _bucket line per
// bound plus +Inf, then _sum and _count. labels is the series' label
// list without braces ("" for none); le is appended to it.
func (p *PromWriter) Hist(name, labels string, h *Histogram) {
	sep, set := "", ""
	if labels != "" {
		sep, set = ",", "{"+labels+"}"
	}
	cum := uint64(0)
	for i, n := range h.counts {
		cum += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		p.Printf("%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	p.Printf("%s_sum%s %v\n", name, set, h.sum)
	p.Printf("%s_count%s %d\n", name, set, h.count)
}
