package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/intbits"
	"parbitonic/internal/serve"
	"parbitonic/internal/workload"
)

// loadConcurrency is the offered-concurrency sweep of the serve-load
// experiments.
var loadConcurrency = []int{1, 4, 16, 64}

// serveLoadKeys is the per-request key count of the load experiments:
// small enough that per-request overhead (engine setup, remap latency)
// dominates — the regime batching exists for.
const serveLoadKeys = 1024

// loadTag masks workload keys to 24 bits so deep batches stay
// tag-addressable (a 16-way batch needs 4 high bits free; see the
// serve package's tag-bit scheme).
const loadTag = 1<<24 - 1

// ServeLoad measures the sort service in-process: throughput and
// latency percentiles of 1k-key requests at increasing offered
// concurrency, against a baseline that builds an engine per request —
// the naive service loop the pooling/batching layer replaces.
func ServeLoad(c Config) *Table {
	p := intbits.CeilPow2(runtime.GOMAXPROCS(0))
	if p < 4 {
		p = 4
	}
	if p > 16 {
		p = 16
	}
	t := &Table{
		ID: "Serve load",
		Title: fmt.Sprintf("sort service, %d-key requests on the native backend (P=%d): batching server vs per-request engine",
			serveLoadKeys, p),
		Columns: []string{"clients", "mode", "req/s", "p50 ms", "p99 ms", "reqs batched"},
		Notes: []string{
			"batched = pooled engines + request coalescing (serve.Server); per-request = a fresh engine and a solo run per call.",
			"keys are masked to 24 bits so deep batches keep tag headroom; full-range keys would fall back to solo runs.",
			"the acceptance bar is >=2x batched over per-request throughput at 64 clients.",
		},
	}

	reqsPer := 64 >> min(c.Scale, 4)
	if reqsPer < 4 {
		reqsPer = 4
	}

	srv, err := serve.New(serve.Config{
		Engine: parbitonic.Config{Processors: p, Backend: parbitonic.Native},
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer srv.Close()

	var batchedAt64, soloAt64 float64
	for _, clients := range loadConcurrency {
		rps, p50, p99 := runLoad(clients, reqsPer, c.Seed, func(keys []uint32) error {
			_, err := srv.Sort(context.Background(), keys)
			return err
		})
		_, batched := srv.Metrics().BatchCount()
		if clients == 64 {
			batchedAt64 = rps
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", clients), "batched", f1(rps), f2(p50), f2(p99), fmt.Sprintf("%.0f", batched),
		})
	}

	ecfg := parbitonic.Config{Processors: p, Backend: parbitonic.Native}
	for _, clients := range loadConcurrency {
		rps, p50, p99 := runLoad(clients, reqsPer, c.Seed, func(keys []uint32) error {
			e, err := parbitonic.NewEngine(ecfg)
			if err != nil {
				return err
			}
			out := append([]uint32(nil), keys...)
			_, err = e.SortPadded(out)
			return err
		})
		if clients == 64 {
			soloAt64 = rps
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", clients), "per-request", f1(rps), f2(p50), f2(p99), "0",
		})
	}
	if soloAt64 > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("measured: %.2fx batched over per-request at 64 clients.", batchedAt64/soloAt64))
	}
	return t
}

// LoadHTTP drives a live sort-server over HTTP (binary u32 frames)
// through the same concurrency sweep as ServeLoad. url is the server
// base, e.g. http://localhost:8357. Every request carries a unique
// X-Request-ID; a response that fails to echo it back counts as an
// error, so CI's zero-errors gate also gates trace propagation.
func LoadHTTP(url string, reqsPerClient int, seed uint64) *Table {
	t := &Table{
		ID:      "HTTP load",
		Title:   fmt.Sprintf("POST %s/sort, %d-key binary frame requests", url, serveLoadKeys),
		Columns: []string{"clients", "req/s", "p50 ms", "p99 ms", "errors"},
		Notes: []string{
			"wire format: application/octet-stream, a u32 frame (8-byte PBSF header, then little-endian uint32 keys).",
			"latency includes HTTP round-trip; compare shapes, not absolutes, with the in-process Serve load table.",
			"every request sends X-Request-ID; a missing or wrong echo on the response counts as an error.",
		},
	}
	client := &http.Client{Timeout: 60 * time.Second}
	var reqSeq atomic.Uint64
	for _, clients := range loadConcurrency {
		var errs int64
		var errMu sync.Mutex
		rps, p50, p99 := runLoad(clients, reqsPerClient, seed, func(keys []uint32) error {
			body := serve.FrameHeader(element.TU32)
			for _, k := range keys {
				body = binary.LittleEndian.AppendUint32(body, k)
			}
			id := fmt.Sprintf("load-%d-%d", clients, reqSeq.Add(1))
			req, err := http.NewRequest(http.MethodPost, url+"/sort", bytes.NewReader(body))
			if err == nil {
				req.Header.Set("Content-Type", "application/octet-stream")
				req.Header.Set("X-Request-ID", id)
				var resp *http.Response
				resp, err = client.Do(req)
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					} else if got := resp.Header.Get("X-Request-ID"); got != id {
						err = fmt.Errorf("request ID not echoed: sent %q, got %q", id, got)
					}
				}
			}
			if err != nil {
				errMu.Lock()
				errs++
				errMu.Unlock()
			}
			return err
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", clients), f1(rps), f2(p50), f2(p99), fmt.Sprintf("%d", errs),
		})
	}
	return t
}

// runLoad fans clients goroutines out over one request function and
// returns throughput (requests/s) and latency percentiles (ms). Every
// client issues reqsPer requests of serveLoadKeys keys.
func runLoad(clients, reqsPer int, seed uint64, do func([]uint32) error) (rps, p50ms, p99ms float64) {
	lat := make([][]float64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			keys := workload.Keys(workload.Uniform31, serveLoadKeys, seed+uint64(c))
			for i := range keys {
				keys[i] &= loadTag
			}
			for i := 0; i < reqsPer; i++ {
				t0 := time.Now()
				if err := do(keys); err != nil {
					continue
				}
				lat[c] = append(lat[c], time.Since(t0).Seconds()*1e3)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(all)
	return float64(len(all)) / wall, percentile(all, 0.50), percentile(all, 0.99)
}

// percentile reads the q-quantile (0..1) of a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
