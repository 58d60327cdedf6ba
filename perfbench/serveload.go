package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"parbitonic/element"
	"parbitonic/internal/obs"
	"parbitonic/internal/serve"
	"parbitonic/internal/verify"
)

// serveBench drives a serve.Gateway in-process through its HTTP
// handler: closed-loop clients call ServeHTTP with pre-built PBSF
// frames, no sockets. The gateway and its engine pool are built once
// and reused for every timed call.
type serveBench[E element.Elem] struct {
	clients int
	warm    int // warm-up requests per client in each set-up
	n       int // elements per request
	bodies  [][]byte
	sums    []verify.Checksum
	g       *serve.Gateway
	h       http.Handler
}

// newServeBench pre-builds one request body per input.
func newServeBench[E element.Elem](inputs [][]E, clients, warm int) *serveBench[E] {
	b := &serveBench[E]{clients: clients, warm: warm, n: len(inputs[0])}
	for _, in := range inputs {
		b.bodies = append(b.bodies, encodeFrame(in))
		b.sums = append(b.sums, verify.Sum(in))
	}
	return b
}

func (b *serveBench[E]) close() {
	if b.g != nil {
		b.g.Close()
		b.g = nil
	}
}

// setup builds the gateway reps times, each time timing NewGateway
// plus warm-up requests until the pool holds an idle engine, and keeps
// the last gateway. It returns the set-up times in seconds.
func (b *serveBench[E]) setup(reps int, rec *recorder) ([]float64, error) {
	secs := make([]float64, reps)
	for i := range secs {
		b.close()
		debug.FreeOSMemory()
		t0 := time.Now()
		g, err := serve.NewGateway(serve.Config{Engine: engineConfig(nil)})
		if err != nil {
			return nil, fmt.Errorf("new gateway: %w", err)
		}
		b.g, b.h = g, serve.NewGatewayHandler(g, nil)
		t1 := time.Now()
		st, err := b.loop(0, b.warm, nil)
		if err != nil {
			return nil, err
		}
		if st.failed > 0 {
			return nil, fmt.Errorf("warm-up request: %w", st.firstErr)
		}
		c, err := b.scrape()
		if err != nil {
			return nil, err
		}
		if c.idle < 1 {
			return nil, fmt.Errorf("warm-up left no idle engine in the pool")
		}
		t2 := time.Now()
		secs[i] = t2.Sub(t0).Seconds()
		root := rec.newID()
		rec.record(root, "serve.new_gateway", t0, t1, nil)
		rec.record(root, "serve.warmup", t1, t2, nil)
		rec.add(root, 0, "bench.setup", t0, t2, nil)
	}
	return secs, nil
}

// loop runs the closed-loop clients until d has passed (d > 0) or each
// has made limit calls (limit > 0). Client c sends bodies c, c+clients,
// ... in turn; each reply is checked with the clock stopped, and client
// 0 marks the chunk boundaries between its calls. With a recorder, each
// correct ServeHTTP is a root span.
func (b *serveBench[E]) loop(d time.Duration, limit int, rec *recorder) (loopStats, error) {
	runtime.GC()
	per := make([]loopStats, b.clients)
	ch := chunker{start: time.Now()}
	if err := ch.mark(true); err != nil {
		return loopStats{}, err
	}
	deadline := ch.start.Add(d)
	var markErr error // written by client 0 only, read after Wait
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			var rw respWriter
			var body reqBody
			req, err := http.NewRequest(http.MethodPost, "/sort", &body)
			if err != nil {
				st.attempted++
				st.fail(err)
				return
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			for i := c; (d <= 0 || time.Now().Before(deadline)) && (limit <= 0 || st.attempted < limit); i += b.clients {
				k := i % len(b.bodies)
				body.Reset(b.bodies[k])
				req.ContentLength = int64(len(b.bodies[k]))
				rw.reset()
				t0 := time.Now()
				b.h.ServeHTTP(&rw, req)
				t1 := time.Now()
				st.attempted++
				cl := call{start: t0.Sub(ch.start), ms: msOf(t1.Sub(t0))}
				if err := checkResponse[E](rw.code(), rw.body.Bytes(), b.n, b.sums[k]); err != nil {
					st.fail(err)
				} else {
					cl.keys = b.n
					rec.record(0, "serve.request", t0, t1, nil)
				}
				st.calls = appendCall(st.calls, cl)
				if c == 0 && markErr == nil {
					markErr = ch.mark(false)
				}
			}
		}(c)
	}
	wg.Wait()
	if markErr == nil {
		markErr = ch.mark(true)
	}
	all := loopStats{window: window{marks: ch.marks, concurrent: b.clients > 1}}
	for _, st := range per {
		all.calls = append(all.calls, st.calls...)
		all.attempted += st.attempted
		all.failed += st.failed
		if all.firstErr == nil {
			all.firstErr = st.firstErr
		}
	}
	return all, markErr
}

// reqBody is a request body a client re-arms for every call, so that
// one *http.Request per client serves the whole loop and the load
// generator itself makes no garbage per request.
type reqBody struct{ bytes.Reader }

// Close implements io.ReadCloser.
func (*reqBody) Close() error { return nil }

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// code is the status the handler sent; net/http reports 200 for a
// handler that wrote nothing.
func (w *respWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *respWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

// serveCounters are the counters the gateway publishes for the
// server of element type E: request, batch, retry, degraded and pool
// counts from /stats, and per-stage time sums and counts from the
// stage histograms on /metrics.
type serveCounters struct {
	ok, batches, retries, degraded float64
	gets, hits, idle               float64
	stageSum, stageCount           [obs.NumStages]float64
}

// scrape reads the counters through the gateway's own handler.
func (b *serveBench[E]) scrape() (serveCounters, error) {
	var c serveCounters
	elem := element.TypeOf[E]().String()

	var rw respWriter
	req, _ := http.NewRequest(http.MethodGet, "/stats", nil)
	b.h.ServeHTTP(&rw, req)
	var stats struct {
		Elems map[string]struct {
			Requests map[string]float64 `json:"requests"`
			Batches  float64            `json:"batches"`
			Retries  float64            `json:"retries"`
			Degraded float64            `json:"degraded"`
			Pool     struct{ Gets, Hits, Idle float64 }
		} `json:"elems"`
	}
	if err := json.Unmarshal(rw.body.Bytes(), &stats); err != nil {
		return c, fmt.Errorf("scrape /stats: %w", err)
	}
	s, ok := stats.Elems[elem]
	if !ok {
		return c, fmt.Errorf("scrape /stats: no %s section", elem)
	}
	c.ok, c.batches, c.retries, c.degraded = s.Requests["ok"], s.Batches, s.Retries, s.Degraded
	c.gets, c.hits, c.idle = s.Pool.Gets, s.Pool.Hits, s.Pool.Idle

	rw.reset()
	req, _ = http.NewRequest(http.MethodGet, "/metrics", nil)
	b.h.ServeHTTP(&rw, req)
	found := 0
	for sc := bufio.NewScanner(&rw.body); sc.Scan(); {
		line := sc.Text()
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			labels := fmt.Sprintf("{elem=%q,stage=%q} ", elem, st.String())
			for _, f := range []struct {
				suffix string
				dst    *float64
			}{{"_sum", &c.stageSum[st]}, {"_count", &c.stageCount[st]}} {
				v, ok := strings.CutPrefix(line, "parbitonic_serve_stage_seconds"+f.suffix+labels)
				if !ok {
					continue
				}
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return c, fmt.Errorf("scrape /metrics: %q: %w", line, err)
				}
				*f.dst = x
				found++
			}
		}
	}
	if found != 2*int(obs.NumStages) {
		return c, fmt.Errorf("scrape /metrics: found %d of %d %s stage series", found, 2*obs.NumStages, elem)
	}
	return c, nil
}

// stageMeanMS is the mean time per request of stage st between two
// scrapes, in ms.
func stageMeanMS(before, after serveCounters, st obs.Stage) float64 {
	n := after.stageCount[st] - before.stageCount[st]
	if n == 0 {
		return 0
	}
	return (after.stageSum[st] - before.stageSum[st]) / n * 1e3
}
