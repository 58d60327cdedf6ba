// Command bitonic-sort sorts a synthetic workload with a chosen
// algorithm and prints the execution statistics — a quick way to poke
// at the library from the shell. By default it runs on the simulated
// machine and reports model time; -backend native runs the same
// algorithm as real goroutines and reports wall-clock time.
//
// Usage:
//
//	bitonic-sort [-p procs] [-n keys-per-proc] [-alg name] [-dist name]
//	             [-keytype u32|u64|f32|f64|kv64] [-backend simulated|native]
//	             [-short] [-simulate] [-fused] [-seed S] [-timeout D]
//	             [-verify] [-v]
//
// -short, -simulate and -fused are the simulator's ablation switches
// (parbitonic.SimOptions); with -backend native they are a usage
// error.
//
// Observability (see internal/obs):
//
//	-trace-out FILE        write a Chrome trace-event JSON of the run
//	                       (load in chrome://tracing or ui.perfetto.dev)
//	-metrics-addr ADDR     serve Prometheus /metrics and expvar
//	                       /debug/vars on ADDR for the process lifetime
//	                       (":0" picks a free port; the bound address is
//	                       printed)
//	-metrics-snapshot FILE after the sort, scrape the metrics endpoint
//	                       and save the exposition ("-" = stdout)
//	-drift                 print the model-drift report: measured
//	                       remaps/volume/messages/comm-time vs the §3.4
//	                       closed forms
//	-slog                  structured run logs (log/slog) on stderr
//
// Autotuning (see internal/tune and TUNING.md):
//
//	-calibrate             microbenchmark this host's kernel and
//	                       exchange costs and write the machine profile,
//	                       then exit (-quick for a faster, coarser pass)
//	-auto                  let the cost model pick algorithm, strategy
//	                       and processor count for the workload size;
//	                       -p becomes the P cap and -alg is ignored
//	-profile FILE          machine profile location for -calibrate and
//	                       -auto (default: the user cache dir)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
	"parbitonic/internal/tune"
	"parbitonic/internal/workload"
)

var algorithms = map[string]parbitonic.Algorithm{
	"smart":          parbitonic.SmartBitonic,
	"cyclic-blocked": parbitonic.CyclicBlockedBitonic,
	"blocked-merge":  parbitonic.BlockedMergeBitonic,
	"sample":         parbitonic.SampleSort,
	"radix":          parbitonic.RadixSort,
}

var dists = map[string]workload.Dist{
	"uniform":     workload.Uniform31,
	"fullrange":   workload.FullRange,
	"sorted":      workload.Sorted,
	"reverse":     workload.Reverse,
	"fewdistinct": workload.FewDistinct,
	"gaussian":    workload.Gaussian,
	"allequal":    workload.AllEqual,
}

func main() {
	p := flag.Int("p", 16, "number of simulated processors (power of two)")
	n := flag.Int("n", 1<<16, "keys per processor (power of two)")
	algName := flag.String("alg", "smart", "algorithm: smart, cyclic-blocked, blocked-merge, sample, radix")
	backendName := flag.String("backend", "simulated", "execution backend: simulated (model time) or native (wall-clock)")
	distName := flag.String("dist", "uniform", "distribution: uniform, fullrange, sorted, reverse, fewdistinct, gaussian, allequal")
	keytypeName := flag.String("keytype", "u32", "element type: u32, u64, f32, f64, kv64 (kv64 = 64-bit key + 64-bit payload)")
	short := flag.Bool("short", false, "use short (elementwise) messages (simulated backend only)")
	simulate := flag.Bool("simulate", false, "simulate every network step instead of optimized local sorts (simulated backend only)")
	fused := flag.Bool("fused", false, "fuse pack/unpack into local computation, §4.3 (simulated backend only)")
	seed := flag.Uint64("seed", 1, "workload seed")
	timeout := flag.Duration("timeout", 0, "abort the sort after this duration (0 = no limit)")
	doVerify := flag.Bool("verify", false, "verify the output: per-processor order, boundaries, multiset checksum")
	verbose := flag.Bool("v", false, "print the first and last few output keys")
	showTrace := flag.Bool("trace", false, "print a per-processor virtual-time timeline")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and expvar /debug/vars on this address (\":0\" = any free port)")
	metricsSnapshot := flag.String("metrics-snapshot", "", "after the sort, scrape the metrics endpoint into this file (\"-\" = stdout; requires -metrics-addr)")
	drift := flag.Bool("drift", false, "print the model-drift report (measured vs §3.4 closed-form predictions)")
	logRuns := flag.Bool("slog", false, "emit structured run logs (log/slog) on stderr")
	auto := flag.Bool("auto", false, "autotune: the cost model picks algorithm, strategy and P (-p caps P, -alg is ignored)")
	calibrate := flag.Bool("calibrate", false, "calibrate this host's machine profile and exit")
	quick := flag.Bool("quick", false, "with -calibrate: a faster, coarser calibration pass")
	profilePath := flag.String("profile", "", "machine profile path for -calibrate/-auto (default: the user cache dir)")
	flag.Parse()

	if *calibrate {
		if err := runCalibrate(*profilePath, *quick, *timeout); err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	alg, ok := algorithms[*algName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}
	dist, ok := dists[*distName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *distName)
		os.Exit(2)
	}
	keytype, kerr := element.ParseType(*keytypeName)
	if kerr != nil {
		fmt.Fprintln(os.Stderr, kerr)
		os.Exit(2)
	}
	var backend parbitonic.Backend
	switch *backendName {
	case "simulated":
		backend = parbitonic.Simulated
	case "native":
		backend = parbitonic.Native
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backendName)
		os.Exit(2)
	}
	if backend == parbitonic.Native && (*short || *simulate || *fused) {
		fmt.Fprintln(os.Stderr, "-short, -simulate and -fused shape the simulated model; -backend native always runs the fused fast path")
		os.Exit(2)
	}

	// Assemble the observability pipeline from the requested sinks;
	// obs.Multi skips nil entries, so unused sinks cost nothing. One
	// span collector serves both the ASCII timeline and the trace JSON.
	var chrome *obs.ChromeTrace
	if *showTrace || *traceOut != "" {
		chrome = obs.NewChromeTrace()
	}
	var metrics *obs.Metrics
	var metricsURL string
	if *metricsAddr != "" {
		metrics = obs.NewMetrics()
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics listener: %v\n", err)
			os.Exit(1)
		}
		metricsURL = "http://" + ln.Addr().String()
		fmt.Printf("metrics          %s/metrics (expvar at /debug/vars)\n", metricsURL)
		srv := &http.Server{Handler: metrics.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
	} else if *metricsSnapshot != "" {
		fmt.Fprintln(os.Stderr, "-metrics-snapshot requires -metrics-addr")
		os.Exit(2)
	}
	var logs *obs.SlogSink
	if *logRuns {
		logs = obs.NewSlogSink(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	var sinks []obs.Sink
	if chrome != nil {
		sinks = append(sinks, chrome)
	}
	if metrics != nil {
		sinks = append(sinks, metrics)
	}
	if logs != nil {
		sinks = append(sinks, logs)
	}
	var sink parbitonic.Sink
	if len(sinks) > 0 {
		sink = obs.Multi(sinks...)
	}
	var observe func(parbitonic.SortReport)
	var report parbitonic.SortReport
	if *drift || *auto {
		observe = func(r parbitonic.SortReport) { report = r }
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ecfg := parbitonic.Config{
		Processors:  *p,
		Algorithm:   alg,
		Backend:     backend,
		Sim:         parbitonic.SimOptions{ShortMessages: *short, SimulateSteps: *simulate, FusePackUnpack: *fused},
		Verify:      *doVerify,
		Obs:         sink,
		Observe:     observe,
		Auto:        *auto,
		ProfilePath: *profilePath,
	}
	headTail := 0
	if *verbose {
		headTail = 5
	}
	var out sortOutcome
	var err error
	switch keytype {
	case element.TU32:
		out, err = runSort[uint32](ctx, dist, *p, *n, *seed, ecfg, headTail)
	case element.TU64:
		out, err = runSort[uint64](ctx, dist, *p, *n, *seed, ecfg, headTail)
	case element.TF32:
		out, err = runSort[float32](ctx, dist, *p, *n, *seed, ecfg, headTail)
	case element.TF64:
		out, err = runSort[float64](ctx, dist, *p, *n, *seed, ecfg, headTail)
	case element.TKV64:
		out, err = runSort[element.KV64](ctx, dist, *p, *n, *seed, ecfg, headTail)
	}
	if err != nil {
		switch {
		case errors.Is(err, spmd.ErrDeadline):
			fmt.Fprintf(os.Stderr, "sort aborted: exceeded -timeout %v (%v)\n", *timeout, err)
		case errors.Is(err, spmd.ErrCanceled):
			fmt.Fprintf(os.Stderr, "sort canceled: %v\n", err)
		default:
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
	res := out.res

	if backend == parbitonic.Native {
		fmt.Printf("algorithm        %s (%s %s keys, native backend)\n", res.Algorithm, *distName, keytype)
	} else {
		fmt.Printf("algorithm        %s (%s %s keys, %s messages)\n", res.Algorithm, *distName, keytype, msgMode(*short))
	}
	procs := *p
	if *auto && report.Plan != nil {
		fmt.Printf("plan             %v\n", *report.Plan)
		procs = report.Plan.Processors
	}
	fmt.Printf("keys             %d total = %d procs x %d\n", res.Keys, procs, res.Keys/procs)
	if backend == parbitonic.Native {
		fmt.Printf("wall time        %.1f us  (%.4f us/key)\n", res.Time, res.TimePerKey())
	} else {
		fmt.Printf("model time       %.1f us  (%.4f us/key)\n", res.Time, res.TimePerKey())
	}
	fmt.Printf("per-processor    remaps=%d  volume=%d keys  messages=%d\n", res.Remaps, res.VolumeSent, res.MessagesSent)
	fmt.Printf("phase breakdown  compute=%.1f  pack=%.1f  transfer=%.1f  unpack=%.1f (us)\n",
		res.ComputeTime, res.PackTime, res.TransferTime, res.UnpackTime)
	if *doVerify {
		fmt.Println("verify           ok (local order, boundaries, multiset checksum)")
	}
	if *showTrace {
		fmt.Print(chrome.Timeline(100))
		fmt.Printf("barrier-wait share: %.1f%%\n", chrome.WaitShare()*100)
	}
	if *drift {
		fmt.Print(report)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		if err := chrome.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace            %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
	if *metricsSnapshot != "" {
		if err := scrapeMetrics(metricsURL+"/metrics", *metricsSnapshot); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-snapshot: %v\n", err)
			os.Exit(1)
		}
		if *metricsSnapshot != "-" {
			fmt.Printf("metrics snapshot %s\n", *metricsSnapshot)
		}
	}
	if *verbose {
		fmt.Printf("head %s ... tail %s\n", out.head, out.tail)
	}
}

// sortOutcome carries a finished run's statistics plus rendered
// head/tail samples of the sorted output (for -v).
type sortOutcome struct {
	res        parbitonic.Result
	head, tail string
}

// runSort generates the workload for one element type, sorts it, and
// checks global sortedness (by key, for record elements).
func runSort[E element.Elem](ctx context.Context, dist workload.Dist, p, n int, seed uint64, cfg parbitonic.Config, headTail int) (sortOutcome, error) {
	keys := workload.Elems[E](dist, p*n, seed)
	res, err := parbitonic.SortContext(ctx, keys, cfg)
	if err != nil {
		return sortOutcome{}, err
	}
	for i := 1; i < len(keys); i++ {
		if element.Less(keys[i], keys[i-1]) {
			return sortOutcome{}, fmt.Errorf("OUTPUT NOT SORTED at %d", i)
		}
	}
	out := sortOutcome{res: res}
	if headTail > 0 {
		k := headTail
		if len(keys) < 2*k {
			k = len(keys) / 2
		}
		out.head = fmt.Sprintf("%v", keys[:k])
		out.tail = fmt.Sprintf("%v", keys[len(keys)-k:])
	}
	return out, nil
}

// runCalibrate microbenchmarks the host's per-element kernel costs and
// native barrier round trip and writes the machine profile the planner
// reads (see internal/tune and TUNING.md).
func runCalibrate(path string, quick bool, timeout time.Duration) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if path == "" {
		var err error
		path, err = tune.DefaultPath()
		if err != nil {
			return err
		}
	}
	prof, err := tune.Calibrate(ctx, tune.Options{Quick: quick})
	if err != nil {
		return err
	}
	if err := prof.Save(path); err != nil {
		return err
	}
	fmt.Printf("calibrated       %s/%s, %d CPUs (quick=%v)\n", prof.GoOS, prof.GoArch, prof.CPUs, prof.Quick)
	for _, t := range element.Types() {
		k, ok := prof.Kernels[t.String()]
		if !ok {
			continue
		}
		fmt.Printf("%-8s         radix=%.2f  merge=%.2f  copy=%.2f  radix-round=%.2f (ns/elem)\n",
			t, k.RadixPassNS, k.MergeNS, k.CopyNS, k.RadixRoundNS)
	}
	how := "fallback, not measured"
	if prof.SyncProcs > 0 {
		how = fmt.Sprintf("measured at P=%d", prof.SyncProcs)
	}
	fmt.Printf("sync             barrier=%.0f  run=%.0f (ns, %s)\n", prof.BarrierNS, prof.RunNS, how)
	fmt.Printf("profile          %s\n", path)
	return nil
}

func msgMode(short bool) string {
	if short {
		return "short"
	}
	return "long"
}

// scrapeMetrics fetches the Prometheus exposition over the process's
// own HTTP listener — exercising the same path an external scraper
// would — and writes it to path ("-" = stdout).
func scrapeMetrics(url, path string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var out io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	_, err = io.Copy(out, resp.Body)
	return err
}
