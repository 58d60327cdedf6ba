package serve

import (
	"encoding/json"
	"html/template"
	"net/http"
	"time"

	"parbitonic/internal/obs"
	"parbitonic/internal/resilience"
)

// The /debug/sortz ops surface: one page answering "what is the sort
// service doing right now, and where did the slow requests spend their
// time" — recent and slowest requests with per-stage breakdowns,
// breaker and pool state, active engine runs, tail estimates, SLO burn
// and runtime health. HTML for humans, ?format=json for machines (the
// CI load-smoke gate consumes the JSON). Durations in the JSON are
// nanoseconds (Go's time.Duration encoding).

// SortzSLO is the SLO section of one element server's sortz entry.
type SortzSLO struct {
	// ThresholdMS is the latency objective bound in milliseconds.
	ThresholdMS float64 `json:"threshold_ms"`
	// Target is the fraction of requests that must meet the bound.
	Target float64 `json:"target"`
	// BurnRate is the current error-budget burn over the sliding window.
	BurnRate float64 `json:"burn_rate"`
	// Ready is false under sustained burn (healthz then reports 503).
	Ready bool `json:"ready"`
}

// SortzElem is one element server's sortz entry.
type SortzElem struct {
	// Elem names the server's element type (u32, u64, ...).
	Elem string `json:"elem"`
	// QueueDepth is the admission queue's occupancy at snapshot time.
	QueueDepth int `json:"queue_depth"`
	// Breaker is the circuit breaker position ("none" when disabled).
	Breaker string `json:"breaker"`
	// Pool is the engine pool's counters.
	Pool PoolStats `json:"pool"`
	// Requests counts completed requests by outcome.
	Requests map[string]float64 `json:"requests"`
	// Retries counts engine runs retried after transient failures.
	Retries float64 `json:"retries"`
	// Degraded counts requests served by the sequential fallback.
	Degraded float64 `json:"degraded"`
	// P50, P95 and P99 are the streaming end-to-end latency tail
	// estimates in seconds.
	P50 float64 `json:"p50_seconds"`
	// P95 is the 95th-percentile estimate in seconds.
	P95 float64 `json:"p95_seconds"`
	// P99 is the 99th-percentile estimate in seconds.
	P99 float64 `json:"p99_seconds"`
	// Negatives counts stage readings clamped from negative (must be 0).
	Negatives uint64 `json:"negative_stage_readings"`
	// SLO is the objective section; nil when none is configured.
	SLO *SortzSLO `json:"slo,omitempty"`
	// Active lists the engine runs in flight at snapshot time.
	Active []ActiveBatch `json:"active_batches"`
	// Slowest lists the slowest completed requests since start.
	Slowest []RequestRecord `json:"slowest"`
	// Recent lists the last completed requests, newest first.
	Recent []RequestRecord `json:"recent"`
}

// SortzSnapshot is the machine-readable /debug/sortz payload.
type SortzSnapshot struct {
	// Now is the wall-clock snapshot instant.
	Now time.Time `json:"now"`
	// Runtime holds the Go runtime health signals (heap, goroutines,
	// GC pause and scheduler latency tails).
	Runtime map[string]any `json:"runtime"`
	// Elems holds one entry per element server, in gateway order.
	Elems []SortzElem `json:"elems"`
}

// sortzSnapshot assembles the live snapshot across the gateway's servers.
func sortzSnapshot(g *Gateway, rh *obs.RuntimeHealth) SortzSnapshot {
	snap := SortzSnapshot{Now: time.Now(), Runtime: rh.Snapshot()}
	for _, t := range g.order {
		m := g.servers[t].Metrics()
		p50, p95, p99 := m.Stages().Quantiles()
		e := SortzElem{
			Elem:       m.Elem(),
			QueueDepth: m.queueDepth(),
			Breaker:    breakerName(m),
			Pool:       m.pool.Stats(),
			Requests:   requestCounts(m),
			Retries:    m.RetryCount(),
			Degraded:   m.DegradedCount(),
			P50:        p50,
			P95:        p95,
			P99:        p99,
			Negatives:  m.Stages().Negatives(),
			Active:     m.ActiveBatches(),
			Slowest:    m.SlowestRequests(),
			Recent:     m.RecentRequests(),
		}
		if cfg, ok := m.Stages().SLOConfigured(); ok {
			ready, burn := m.Stages().SLOReady()
			e.SLO = &SortzSLO{
				ThresholdMS: float64(cfg.Threshold) / float64(time.Millisecond),
				Target:      cfg.Target,
				BurnRate:    burn,
				Ready:       ready,
			}
		}
		snap.Elems = append(snap.Elems, e)
	}
	return snap
}

func breakerName(m *Metrics) string {
	if m.breakerState == nil {
		return "none"
	}
	return resilience.BreakerState(m.breakerState()).String()
}

func requestCounts(m *Metrics) map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.requests))
	for k, v := range m.requests {
		out[k] = v
	}
	return out
}

// handleSortz serves the ops page: JSON for ?format=json, HTML
// otherwise. Request IDs are client-supplied strings; the HTML path
// renders through html/template so they cannot inject markup.
func handleSortz(g *Gateway, rh *obs.RuntimeHealth, w http.ResponseWriter, r *http.Request) {
	snap := sortzSnapshot(g, rh)
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	sortzTmpl.Execute(w, snap)
}

// sortzFuncs formats durations and instants for the HTML view.
var sortzFuncs = template.FuncMap{
	"dur": func(d time.Duration) string { return d.Round(time.Microsecond).String() },
	"stage": func(b obs.StageBreakdown, i int) string {
		return b[obs.Stage(i)].Round(time.Microsecond).String()
	},
	"when": func(t time.Time) string { return t.Format("15:04:05.000") },
	"ms": func(v float64) string {
		return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
	},
}

var sortzTmpl = template.Must(template.New("sortz").Funcs(sortzFuncs).Parse(`<!doctype html>
<html><head><title>sortz</title><style>
body { font-family: monospace; margin: 1.5em; background: #fafafa; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.2em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #eee; } td.l, th.l { text-align: left; }
.bad { color: #b00; font-weight: bold; } .ok { color: #080; }
.meta { color: #666; }
</style></head><body>
<h1>sortz — sort service ops</h1>
<p class="meta">{{when .Now}} · heap {{index .Runtime "heap_bytes"}} B · goroutines {{index .Runtime "goroutines"}} · gc p99 {{index .Runtime "gc_pause_p99_s"}}s · sched p99 {{index .Runtime "sched_latency_p99_s"}}s</p>
{{range .Elems}}
<h2>elem {{.Elem}}</h2>
<p>queue {{.QueueDepth}} · breaker {{.Breaker}} ·
pool idle {{.Pool.Idle}} / quarantined {{.Pool.Quarantined}} ·
retries {{.Retries}} · degraded {{.Degraded}} ·
p50 {{ms .P50}} · p95 {{ms .P95}} · p99 {{ms .P99}} ·
negative stage readings {{if .Negatives}}<span class="bad">{{.Negatives}}</span>{{else}}<span class="ok">0</span>{{end}}
{{with .SLO}} · SLO {{.Target}} under {{.ThresholdMS}}ms: burn {{printf "%.2f" .BurnRate}} {{if .Ready}}<span class="ok">ready</span>{{else}}<span class="bad">UNREADY</span>{{end}}{{end}}</p>
{{if .Active}}
<h3>active batches</h3>
<table><tr><th>seq</th><th>keys</th><th class="l">started</th><th class="l">requests</th></tr>
{{range .Active}}<tr><td>{{.Seq}}</td><td>{{.Keys}}</td><td class="l">{{when .Started}}</td><td class="l">{{range .Requests}}{{.}} {{end}}</td></tr>
{{end}}</table>
{{end}}
<h3>slowest requests</h3>
<table><tr><th class="l">id</th><th>keys</th><th class="l">outcome</th><th class="l">start</th><th>total</th><th>queue</th><th>batch</th><th>engine</th><th>retry</th><th>copyout</th></tr>
{{range .Slowest}}<tr><td class="l">{{.ID}}</td><td>{{.Keys}}</td><td class="l">{{.Outcome}}{{if .Degraded}} (degraded){{end}}{{if .Retried}} (retried){{end}}</td><td class="l">{{when .Start}}</td><td>{{dur .Total}}</td><td>{{stage .Stages 0}}</td><td>{{stage .Stages 1}}</td><td>{{stage .Stages 2}}</td><td>{{stage .Stages 3}}</td><td>{{stage .Stages 4}}</td></tr>
{{end}}</table>
<h3>recent requests</h3>
<table><tr><th class="l">id</th><th>keys</th><th class="l">outcome</th><th class="l">start</th><th>total</th><th>queue</th><th>batch</th><th>engine</th><th>retry</th><th>copyout</th></tr>
{{range .Recent}}<tr><td class="l">{{.ID}}</td><td>{{.Keys}}</td><td class="l">{{.Outcome}}{{if .Degraded}} (degraded){{end}}{{if .Retried}} (retried){{end}}</td><td class="l">{{when .Start}}</td><td>{{dur .Total}}</td><td>{{stage .Stages 0}}</td><td>{{stage .Stages 1}}</td><td>{{stage .Stages 2}}</td><td>{{stage .Stages 3}}</td><td>{{stage .Stages 4}}</td></tr>
{{end}}</table>
{{end}}
</body></html>
`))
