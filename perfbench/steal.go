package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor preempts the guest's
// CPUs (steal time), and a P = 2 run waits at every barrier for the
// preempted core. Steal is a property of the host, not of the program,
// and it comes and goes within minutes, so the end-to-end run observes
// twice the window in chunks, reads the host's steal counter at every
// chunk boundary, and reports the least-stolen half.

// chunkLen is the length of one chunk of a timed window.
const chunkLen = time.Second

// call is one timed call of a loop.
type call struct {
	start time.Duration // since the loop started
	ms    float64
	keys  int // keys in a correct output; 0 for a failed call
}

// callBlock is how many call records one block holds. Calls are
// recorded in blocks of this size, so recording never regrows a slice
// and the peak RSS does not depend on where a regrowth lands.
const callBlock = 1024

// appendCall records c in the last block of blocks, starting a new
// block when that one is full.
func appendCall(blocks [][]call, c call) [][]call {
	if n := len(blocks); n == 0 || len(blocks[n-1]) == cap(blocks[n-1]) {
		blocks = append(blocks, make([]call, 0, callBlock))
	}
	blocks[len(blocks)-1] = append(blocks[len(blocks)-1], c)
	return blocks
}

// stealMark is one reading of the host's cumulative CPU time and the
// part of it stolen, in clock ticks summed over all CPUs.
type stealMark struct {
	at           time.Duration // since the loop started
	steal, total uint64
}

// readSteal reads the aggregate line of /proc/stat.
func readSteal() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("steal: %w", err)
	}
	defer f.Close()
	return parseProcStat(f)
}

// parseProcStat reads the "cpu" line of a /proc/stat file: user, nice,
// system, idle, iowait, irq, softirq and steal ticks. Total is their
// sum (guest time is already inside user).
func parseProcStat(r io.Reader) (steal, total uint64, err error) {
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil && err != io.EOF {
		return 0, 0, fmt.Errorf("steal: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("steal: malformed /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("steal: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// chunker takes a steal mark at the start of a loop, after the first
// call that ends a chunk, and at the end.
type chunker struct {
	start time.Time
	marks []stealMark
	next  time.Duration
}

// mark records a reading when a chunk has ended, or always if force.
func (c *chunker) mark(force bool) error {
	now := time.Since(c.start)
	if !force && now < c.next {
		return nil
	}
	s, t, err := readSteal()
	if err != nil {
		return err
	}
	c.marks = append(c.marks, stealMark{now, s, t})
	c.next = now + chunkLen
	return nil
}

// window is what a loop observed: every call, in blocks, and the
// steal marks that cut its wall time into chunks.
type window struct {
	calls [][]call
	marks []stealMark
	// concurrent loops count throughput over wall time; a single
	// caller counts it over the time spent in calls, since its copy-in
	// and check run with the clock stopped.
	concurrent bool
}

// kept selects the least-stolen chunks covering at least frac of the
// chunks (ties go to the earlier chunk) and returns the calls started
// in them, their timed span and the steal share of the host over them.
func (w window) kept(frac float64) (calls []call, timed time.Duration, steal float64) {
	n := len(w.marks) - 1
	if n < 1 {
		return nil, 0, math.NaN()
	}
	idx := make([]int, n)
	share := make([]float64, n)
	for i := range idx {
		idx[i] = i
		if dt := w.marks[i+1].total - w.marks[i].total; dt > 0 {
			share[i] = float64(w.marks[i+1].steal-w.marks[i].steal) / float64(dt)
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(share[a], share[b]) })
	keep := make([]bool, n)
	var stolen, total uint64
	for _, i := range idx[:int(math.Ceil(frac*float64(n)))] {
		keep[i] = true
		stolen += w.marks[i+1].steal - w.marks[i].steal
		total += w.marks[i+1].total - w.marks[i].total
		if w.concurrent {
			timed += w.marks[i+1].at - w.marks[i].at
		}
	}
	for _, cs := range w.calls {
		for _, c := range cs {
			i, found := slices.BinarySearchFunc(w.marks, c.start, func(m stealMark, t time.Duration) int { return cmp.Compare(m.at, t) })
			// Marks are taken between calls, so a call starting exactly
			// at a mark belongs to the chunk that mark opens.
			if !found {
				i--
			}
			if i < 0 || i >= n || !keep[i] {
				continue
			}
			calls = append(calls, c)
			if !w.concurrent {
				timed += time.Duration(c.ms * float64(time.Millisecond))
			}
		}
	}
	if total > 0 {
		steal = float64(stolen) / float64(total)
	}
	return calls, timed, steal
}
