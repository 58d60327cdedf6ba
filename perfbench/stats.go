package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100)
// of samples together with the number of samples it was taken over.
// The nearest-rank value is always one of the samples, so a reported
// p90 is a latency some call really had. An empty sample set yields
// (NaN, 0).
func percentile(samples []float64, q float64) (value float64, n int) {
	n = len(samples)
	if n == 0 {
		return math.NaN(), 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return s[rank-1], n
}

// median is the 50th percentile of samples.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// mean is the arithmetic mean of samples (NaN when empty).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// remainder derives the part of total its measured parts do not cover:
// total - sum(parts). A layer's self time is its span minus its
// children, so a negative remainder means the parts were measured over
// a longer interval than the total — an error in the benchmark, not a
// reading.
func remainder(name string, total float64, parts ...float64) (float64, error) {
	r := total
	for _, p := range parts {
		r -= p
	}
	if r < 0 {
		return r, fmt.Errorf("%s: derived remainder %.6g is negative (total %.6g, parts %v)", name, r, total, parts)
	}
	return r, nil
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM reads the VmHWM line of a /proc/<pid>/status file, which
// the kernel reports in kB, and converts it to MiB.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("peak rss: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line")
}
