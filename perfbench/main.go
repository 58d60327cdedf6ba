// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed wall window and prints every
// metric by name with its unit, then, as its last line, a JSON object
// {"correct", "attempted", "failed", "metrics"}. Every timed call's
// output is checked with the clock stopped; any wrong output or error
// makes the run exit non-zero.
//
// With -trace 0 the run reports the end-to-end metrics, over the
// least-stolen half of a loop twice the window long (see steal.go).
// With -trace 1 it is a separate run that records spans around each
// call the benchmark makes into a layer, writes them under
// .bench_build/traces, and derives the per-layer metrics from them.
// See README.md.
//
//	go run . -workload sort-1m-u32 -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parbitonic/element"
)

// procs is the processor count P of every workload's engine, and the
// GOMAXPROCS the benchmark pins, so the measured shape does not follow
// the host.
const procs = 2

// workload is one fixed input shape and the loop that drives it.
type workload struct {
	name    string
	elem    string
	n       int // keys per timed call
	clients int // closed-loop callers
	run     func(seed uint64, window time.Duration, rec *recorder) (*report, error)
}

var workloads = []workload{
	{name: "sort-1m-u32", elem: "u32", n: 1 << 20, clients: 1, run: func(seed uint64, window time.Duration, rec *recorder) (*report, error) {
		return runSort(genU32(seed, 1<<20), window, rec)
	}},
	{name: "sort-1m-kv64", elem: "kv64", n: 1 << 20, clients: 1, run: func(seed uint64, window time.Duration, rec *recorder) (*report, error) {
		return runSort(genKV64(seed, 1<<20), window, rec)
	}},
	{name: "serve-1k-u32", elem: "u32", n: 1 << 10, clients: procs, run: func(seed uint64, window time.Duration, rec *recorder) (*report, error) {
		return runServe(genBodies(seed, serveBodies, 1<<10), window, rec)
	}},
}

// serveBodies is how many distinct request bodies serve-1k-u32 cycles
// through.
const serveBodies = 64

// serveWarm is the warm-up requests per client in each serve set-up.
const serveWarm = 16

// newRand is the seeded generator every input is drawn from.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

// genU32 draws n uniform 31-bit keys, the paper's distribution.
func genU32(seed uint64, n int) []uint32 {
	r := newRand(seed)
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = r.Uint32() >> 1
	}
	return keys
}

// genKV64 draws n records with uniform 64-bit keys; each payload is
// the record's input position, so a payload parted from its key shows.
func genKV64(seed uint64, n int) []element.KV64 {
	r := newRand(seed)
	recs := make([]element.KV64, n)
	for i := range recs {
		recs[i] = element.KV64{K: r.Uint64(), V: uint64(i)}
	}
	return recs
}

// genBodies draws count requests of n uniform 24-bit keys, leaving the
// top 8 key bits free for the batcher's request tags.
func genBodies(seed uint64, count, n int) [][]uint32 {
	r := newRand(seed)
	out := make([][]uint32, count)
	for i := range out {
		out[i] = make([]uint32, n)
		for j := range out[i] {
			out[i][j] = r.Uint32() & (1<<24 - 1)
		}
	}
	return out
}

func main() {
	name := flag.String("workload", "", "workload to run: sort-1m-u32, sort-1m-kv64 or serve-1k-u32")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	window := time.Duration(*seconds * float64(time.Second))

	var rec *recorder
	names := endToEndMetrics
	if *trace == 1 {
		rec, names = newRecorder(), layerMetrics
	}
	fmt.Printf("# workload %s seed %d seconds %g trace %d: N=%d P=%d elem=%s clients=%d GOMAXPROCS=%d\n",
		w.name, *seed, *seconds, *trace, w.n, procs, w.elem, w.clients, runtime.GOMAXPROCS(0))
	rep, err := w.run(*seed, window, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rec != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	out, err := rep.result(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print()
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d calls failed; first: %v\n", rep.failed, rep.attempted, rep.firstErr)
		os.Exit(1)
	}
}
