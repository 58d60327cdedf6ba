// Command experiments regenerates every table and figure of the
// paper's evaluation on the simulated machine and prints them as
// markdown, side by side with the paper's Meiko CS-2 measurements.
//
// Usage:
//
//	experiments [-scale N] [-seed S] [-only id-substring] [-auto]
//	experiments -load-url http://host:8357 [-load-reqs N]
//
// -scale divides the paper's key counts by 2^N (default 6; 0 runs the
// paper's full sizes, up to 32M keys, which takes a few minutes).
// -auto appends the autotuned-vs-fixed sweep: the cost-model planner
// (internal/tune, TUNING.md) raced against every fixed shape on the
// native backend.
//
// With -load-url the command becomes an HTTP load generator instead:
// it sweeps client concurrency against a running sort-server (see
// cmd/sort-server) and prints throughput and latency percentiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parbitonic/element"
	"parbitonic/internal/experiments"
)

// slug turns an experiment ID into a file name.
func slug(id string) string {
	var sb strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			sb.WriteRune(r + 32)
		case r == ' ' || r == '.' || r == '/':
			sb.WriteByte('-')
		}
	}
	return strings.Trim(strings.ReplaceAll(sb.String(), "---", "-"), "-")
}

func main() {
	scale := flag.Int("scale", 6, "divide the paper's key counts by 2^scale")
	seed := flag.Uint64("seed", 1996, "workload seed")
	only := flag.String("only", "", "run only experiments whose ID contains this substring")
	keytype := flag.String("keytype", "u32", "element type for the element-parameterized experiments: u32, u64, f32, f64, kv64")
	charts := flag.Bool("charts", true, "render figures as ASCII charts below their tables")
	svgDir := flag.String("svg", "", "also write each figure as an SVG file into this directory")
	loadURL := flag.String("load-url", "", "load-generator mode: drive a running sort-server at this base URL instead of the reproduction suite")
	loadReqs := flag.Int("load-reqs", 64, "load-generator mode: requests per client")
	auto := flag.Bool("auto", false, "also run the autotuned-vs-fixed native sweep (measures wall clock; see TUNING.md)")
	flag.Parse()

	if *loadURL != "" {
		tab := experiments.LoadHTTP(*loadURL, *loadReqs, *seed)
		tab.Render(os.Stdout)
		return
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	elem, err := element.ParseType(*keytype)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := experiments.Config{Seed: *seed, Scale: *scale, Elem: elem}
	fmt.Printf("# Reproduction run (scale 1/2^%d of paper sizes, seed %d)\n\n", *scale, *seed)
	start := time.Now()
	suite := experiments.Suite
	if *auto {
		suite = append(suite, experiments.Autotuned)
	}
	ran := 0
	for _, e := range suite {
		if !strings.Contains(e.ID, *only) {
			continue
		}
		tab := e.Run(cfg)
		tab.Render(os.Stdout)
		if *charts {
			if c := tab.Chart(); c != nil {
				fmt.Println("```")
				fmt.Print(c.Render())
				fmt.Println("```")
				fmt.Println()
			}
		}
		if *svgDir != "" {
			if c := tab.SVG(); c != nil {
				name := filepath.Join(*svgDir, slug(tab.ID)+".svg")
				if err := os.WriteFile(name, []byte(c.Render()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("_figure written to %s_\n\n", name)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -only=%q\n", *only)
		os.Exit(1)
	}
	fmt.Printf("_%d experiments in %.1fs wall time._\n", ran, time.Since(start).Seconds())
}
