package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"

	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
)

// MaxBodyBytes caps a POST /sort body (64 MiB ≈ 16M binary keys);
// larger requests get 413.
const MaxBodyBytes = 64 << 20

// sortRequest / sortResponse are the JSON wire shapes of POST /sort.
type sortRequest struct {
	Keys []uint32 `json:"keys"`
}

type sortResponse struct {
	Keys []uint32 `json:"keys"`
	// Degraded is true when the sequential fallback served the request
	// (breaker open or retries exhausted); the result is correct, the
	// latency is not representative. Mirrored by the X-Sort-Degraded
	// response header so binary clients see it too.
	Degraded bool `json:"degraded,omitempty"`
	// RequestID echoes the request's ID (adopted from X-Request-ID /
	// traceparent, or minted); also on the X-Request-ID response header.
	RequestID string `json:"request_id,omitempty"`
}

// degradedHeader marks responses served by the sequential fallback.
const degradedHeader = "X-Sort-Degraded"

// requestIDHeader carries the request ID in and out: a client-supplied
// value is adopted (sanitized), otherwise one is minted, and EVERY
// response — success, 4xx, 5xx, frame error — echoes it back.
const requestIDHeader = "X-Request-ID"

// errorResponse is the JSON error shape of every non-2xx response.
// Code is set for frame-level rejections (FrameError) so binary
// clients can distinguish a width mismatch from a bad version.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// RequestID echoes the failing request's ID for log correlation.
	RequestID string `json:"request_id,omitempty"`
}

// requestID derives the request's ID: a sane X-Request-ID header wins,
// then the W3C traceparent's trace-id, then a freshly minted ID.
func requestID(r *http.Request) string {
	if id := obs.CleanRequestID(r.Header.Get(requestIDHeader)); id != "" {
		return id
	}
	if id := obs.ParseTraceparent(r.Header.Get("traceparent")); id != "" {
		return id
	}
	return obs.NewRequestID()
}

// NewGatewayHandler builds the service's HTTP front end for a Gateway:
//
//	POST /sort        sort keys; application/json {"keys":[...]} goes
//	                  to the u32 server, application/octet-stream — a
//	                  binary frame (see the frame format in gateway.go)
//	                  — to the server of the frame's element type, and
//	                  is answered with a frame of that type; optional
//	                  ?timeout_ms=N per-request deadline
//	GET  /healthz     readiness: 200 "ok", or 503 with JSON reasons
//	                  under sustained SLO error-budget burn
//	GET  /stats       JSON {"elems":{...}}: per element type, the
//	                  server and pool counters
//	GET  /metrics     Prometheus text: serve metrics (including stage
//	                  histograms, tail quantiles, SLO burn; series are
//	                  told apart by the elem label) plus runtime health
//	                  and, when runMetrics is non-nil, the engine-run
//	                  metrics
//	GET  /debug/sortz live ops page: recent slow requests with stage
//	                  breakdowns, breaker/pool state, active batches;
//	                  HTML by default, ?format=json for machines
//	GET  /debug/vars  expvar JSON (engine-run metrics; requires
//	                  runMetrics)
//
// Every /sort response carries X-Request-ID: the client's own (or its
// traceparent trace-id), else a minted one.
//
// Status mapping for /sort: 200 ok, 400 malformed input (typed code
// for bad frames), 413 oversize body, 429 ErrOverloaded (with
// Retry-After), 499 client-canceled, 503 ErrClosed, 504 deadline
// exceeded, 500 anything else.
func NewGatewayHandler(g *Gateway, runMetrics *obs.Metrics) http.Handler {
	rh := obs.NewRuntimeHealth()
	mux := http.NewServeMux()
	mux.HandleFunc("/sort", func(w http.ResponseWriter, r *http.Request) { handleSort(g, w, r) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Readiness degrades under sustained SLO error-budget burn: a
		// server that will miss its objective should stop advertising
		// itself before clients notice the tail.
		var unready []string
		for _, t := range g.order {
			m := g.servers[t].Metrics()
			if ok, burn := m.Stages().SLOReady(); !ok {
				unready = append(unready, fmt.Sprintf("%s: slo burn rate %.2f", m.Elem(), burn))
			}
		}
		if len(unready) > 0 {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"status": "unready", "reasons": unready})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		elems := make(map[string]any, len(g.order))
		for _, t := range g.order {
			elems[t.String()] = statsFor(g.servers[t].Metrics())
		}
		json.NewEncoder(w).Encode(map[string]any{"elems": elems})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for i, t := range g.order {
			_ = g.servers[t].Metrics().writeProm(w, i == 0)
		}
		if runMetrics != nil {
			_ = runMetrics.WriteProm(w)
		}
		_ = rh.WriteProm(w)
	})
	mux.HandleFunc("/debug/sortz", func(w http.ResponseWriter, r *http.Request) { handleSortz(g, rh, w, r) })
	if runMetrics != nil {
		vars := runMetrics.ExpvarFunc()
		mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			fmt.Fprintf(w, "{\n%q: %s\n}\n", "parbitonic", vars.String())
		})
	}
	return mux
}

// statsFor renders one server's /stats section: the request counts of
// every outcome /metrics exports, batch, retry and fallback counters,
// the pool's counters and the queue depth.
func statsFor(m *Metrics) map[string]any {
	batches, batched := m.BatchCount()
	return map[string]any{
		"requests":         requestCounts(m),
		"batches":          batches,
		"batched_requests": batched,
		"retries":          m.RetryCount(),
		"degraded":         m.DegradedCount(),
		"pool":             m.pool.Stats(),
		"queue_depth":      m.queueDepth(),
	}
}

func handleSort(g *Gateway, w http.ResponseWriter, r *http.Request) {
	// Establish the request's identity first, so every response path —
	// including refusals — echoes the ID.
	id := requestID(r)
	w.Header().Set(requestIDHeader, id)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)

	ctx := obs.WithRequestID(r.Context(), id)
	if tm := r.URL.Query().Get("timeout_ms"); tm != "" {
		ms, perr := strconv.Atoi(tm)
		if perr != nil || ms <= 0 {
			httpError(w, http.StatusBadRequest, "timeout_ms must be a positive integer")
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "application/octet-stream" {
		handleBinarySort(g, ctx, w, body)
		return
	}

	req, err := decodeSortRequest(body)
	if err != nil {
		if bodyTooLarge(w, err) {
			return
		}
		httpError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return
	}
	sorted, degraded, err := g.u32.SortDegradable(ctx, req.Keys)
	if err != nil {
		sortError(w, err, g.u32.retryAfterSeconds(err))
		return
	}
	if degraded {
		w.Header().Set(degradedHeader, "1")
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(sortResponse{Keys: sorted, Degraded: degraded, RequestID: id})
}

// decodeSortRequest parses a JSON /sort body, which must be exactly
// one sortRequest object: an unknown field or anything but whitespace
// after the object is an error, so every body has one parse.
func decodeSortRequest(body io.Reader) (sortRequest, error) {
	var req sortRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the request object")
		}
		return req, err
	}
	return req, nil
}

// handleBinarySort serves an octet-stream body: a binary frame is
// routed to the server of its element type and answered with a frame
// of the same type.
func handleBinarySort(g *Gateway, ctx context.Context, w http.ResponseWriter, body io.Reader) {
	raw, err := io.ReadAll(body)
	if err != nil {
		if bodyTooLarge(w, err) {
			return
		}
		httpError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return
	}
	t, payload, err := decodeFrame(raw)
	if err != nil {
		sortError(w, err, 0)
		return
	}
	s := g.servers[t]
	out, degraded, err := s.sortPayload(ctx, payload)
	if err != nil {
		sortError(w, err, s.retryAfterSeconds(err))
		return
	}
	if degraded {
		w.Header().Set(degradedHeader, "1")
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(FrameHeader(t))
	w.Write(out)
}

// bodyTooLarge answers 413 when err is the MaxBytesReader limit.
func bodyTooLarge(w http.ResponseWriter, err error) bool {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", MaxBodyBytes))
		return true
	}
	return false
}

// sortError answers a failed sort, mapping the error to its status and
// (for frame rejections) machine-readable code. retryAfter, when
// positive, is the server-derived backoff hint (seconds) attached to
// the refusals worth retrying: overload (429) and an open breaker
// (503) — not shutdown, whose 503 means "gone", not "later".
func sortError(w http.ResponseWriter, err error, retryAfter int) {
	var ferr *FrameError
	if errors.As(err, &ferr) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(errorResponse{Error: ferr.Error(), Code: ferr.Code, RequestID: w.Header().Get(requestIDHeader)})
		return
	}
	status, msg := sortStatus(err)
	if retryAfter > 0 && (errors.Is(err, ErrOverloaded) || errors.Is(err, ErrBreakerOpen)) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	httpError(w, status, msg)
}

// sortStatus maps a Sort error onto an HTTP status: overload, an open
// breaker and shutdown are the service saying "not now" (429/503),
// deadline and cancellation are the request's own context (504/499),
// anything else — contained panics, verification failures, NaN
// rejections — is a 500.
func sortStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, err.Error()
	case errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable, err.Error()
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, err.Error()
	case errors.Is(err, spmd.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, err.Error()
	case errors.Is(err, spmd.ErrCanceled), errors.Is(err, context.Canceled):
		return 499, err.Error() // client closed request (nginx convention)
	}
	var verr *verify.Error
	if errors.As(err, &verr) {
		return http.StatusInternalServerError, "result verification failed: " + err.Error()
	}
	return http.StatusInternalServerError, err.Error()
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg, RequestID: w.Header().Get(requestIDHeader)})
}
