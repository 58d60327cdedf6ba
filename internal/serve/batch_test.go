package serve

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/obs"
)

func mkReq(keys []uint32) *request[uint32] {
	var mx uint32
	for _, k := range keys {
		if k > mx {
			mx = k
		}
	}
	tr := newReqTrack("test", len(keys))
	return &request[uint32]{
		keys:   keys,
		maxKey: uint64(mx),
		ctx:    context.Background(),
		enq:    time.Now(),
		id:     tr.id,
		tr:     tr,
		res:    make(chan response[uint32], 1),
	}
}

func TestTagShift(t *testing.T) {
	cases := []struct {
		k     int
		shift uint
	}{
		{2, 31}, {3, 30}, {4, 30}, {5, 29}, {8, 29}, {9, 28}, {16, 28}, {17, 27},
	}
	for _, c := range cases {
		if got := tagShift[uint32](c.k); got != c.shift {
			t.Errorf("tagShift(%d) = %d, want %d", c.k, got, c.shift)
		}
	}
}

// TestFitsTagHeadroom pins the admission rule at its bit boundaries:
// two requests using all 31 low bits batch together (1 tag bit), but a
// third member needs 2 tag bits, which those keys no longer clear.
func TestFitsTagHeadroom(t *testing.T) {
	cfg := Config{}.withDefaults()
	big := mkReq([]uint32{1<<31 - 1}) // max key that is batchable at all
	if !batchable(big, cfg) {
		t.Fatal("1<<31-1 must be batchable")
	}
	if !fits([]*request[uint32]{big}, 1, big.maxKey, mkReq([]uint32{1<<31 - 1}), cfg) {
		t.Error("two 31-bit requests must fit (1 tag bit)")
	}
	batch2 := []*request[uint32]{big, big}
	if fits(batch2, 2, big.maxKey, mkReq([]uint32{7}), cfg) {
		t.Error("a third member needs 2 tag bits; 31-bit keys in the batch must block it")
	}
	small := mkReq([]uint32{1<<30 - 1})
	if !fits([]*request[uint32]{small, small}, 2, small.maxKey, mkReq([]uint32{5}), cfg) {
		t.Error("three 30-bit requests must fit (2 tag bits)")
	}
	if batchable(mkReq([]uint32{1 << 31}), cfg) {
		t.Error("a key using bit 31 leaves no tag headroom and must not be batchable")
	}

	// Size cap: summed keys beyond MaxBatchKeys must not fit.
	cfg.MaxBatchKeys = 4
	a := mkReq([]uint32{1, 2, 3})
	if fits([]*request[uint32]{a}, 3, a.maxKey, mkReq([]uint32{4, 5}), cfg) {
		t.Error("batch exceeding MaxBatchKeys must not fit")
	}
}

// TestPackSplitRoundTrip drives packBatch -> sort -> splitBatch
// directly (no server) and checks every member gets exactly its own
// sorted multiset back, duplicates across requests included.
func TestPackSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batch := []*request[uint32]{
		mkReq([]uint32{5, 1, 5, 0, 9}),
		mkReq([]uint32{5, 5, 5}), // duplicates shared with member 0
		mkReq(randKeys(rng, 100, 1<<20)),
		mkReq([]uint32{0}),
	}
	total := 0
	for _, r := range batch {
		total += len(r.keys)
	}
	shift := tagShift[uint32](len(batch))
	buf := make([]uint32, total)
	packBatch(buf, batch, shift)
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })

	m := newMetrics("u32", func() int { return 0 }, NewPool(1), obs.SLOConfig{})
	splitBatch(buf, batch, shift, m)
	for j, r := range batch {
		got := (<-r.res).sorted
		want := sortedRef(r.keys)
		if len(got) != len(want) {
			t.Fatalf("member %d: got %d keys, want %d", j, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("member %d: wrong key at %d: got %d want %d", j, i, got[i], want[i])
			}
		}
	}
}

// sortConcurrently sends each input as its own concurrent request to
// s and returns the results in input order, failing on any error.
func sortConcurrently[E element.Elem](t *testing.T, s *ServerOf[E], ins [][]E) [][]E {
	t.Helper()
	outs := make([][]E, len(ins))
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	for c := range ins {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c], errs[c] = s.Sort(context.Background(), ins[c])
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", c, err)
		}
	}
	return outs
}

// checkSortedMultiset fails unless out is in key order and holds
// exactly the elements of in, compared by bit pattern: payloads, -0
// against +0 and the infinities all count.
func checkSortedMultiset[E element.Elem](t *testing.T, in, out []E) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("got %d elements, want %d", len(out), len(in))
	}
	for i := 1; i < len(out); i++ {
		if element.Less(out[i], out[i-1]) {
			t.Fatalf("out of key order at %d: %v before %v", i, out[i-1], out[i])
		}
	}
	type image struct{ bits, aux uint64 }
	count := make(map[image]int, len(in))
	for _, e := range in {
		count[image{element.Bits(e), element.Aux(e)}]++
	}
	for i, e := range out {
		k := image{element.Bits(e), element.Aux(e)}
		if count[k]--; count[k] < 0 {
			t.Fatalf("output element %d (%v) is not in the input multiset", i, e)
		}
	}
}

// batchTyped sorts ins as concurrent requests on a fresh server of
// element type E whose batching window stays open until every request
// has arrived, checks every result, and returns how many requests
// shared a run.
func batchTyped[E element.Elem](t *testing.T, ins [][]E) float64 {
	t.Helper()
	s, err := NewOf[E](Config{
		Engine:   parbitonic.Config{Processors: 2, Backend: parbitonic.Native},
		MaxBatch: len(ins),
		MaxDelay: time.Second,
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	outs := sortConcurrently(t, s, ins)
	for c := range ins {
		checkSortedMultiset(t, ins[c], outs[c])
	}
	_, batched := s.Metrics().BatchCount()
	return batched
}

// typedInputs builds clients requests of non-power-of-two sizes from
// gen, which gets the request and element index.
func typedInputs[E element.Elem](clients int, gen func(c, i int) E) [][]E {
	ins := make([][]E, clients)
	for c := range ins {
		ins[c] = make([]E, 100+37*c)
		for i := range ins[c] {
			ins[c][i] = gen(c, i)
		}
	}
	return ins
}

// TestBatchEveryElementType runs concurrent small requests of every
// element type through a server. Integer keys and records with tag
// headroom must share runs; floats and records keyed 2^64-1 must run
// alone. Either way every caller gets exactly its own elements back in
// key order.
func TestBatchEveryElementType(t *testing.T) {
	const clients = 6
	rng := rand.New(rand.NewSource(11))
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -1.5}
	float := func(c, i int) float64 {
		if i%5 == 0 {
			return floats[(c+i)%len(floats)]
		}
		return rng.NormFloat64() * 1e3
	}
	cases := []struct {
		name  string
		run   func(t *testing.T) float64
		batch bool
	}{
		{"u32", func(t *testing.T) float64 {
			return batchTyped(t, typedInputs(clients, func(c, i int) uint32 { return rng.Uint32() % (1 << 20) }))
		}, true},
		{"u64", func(t *testing.T) float64 {
			return batchTyped(t, typedInputs(clients, func(c, i int) uint64 { return rng.Uint64() % (1 << 40) }))
		}, true},
		{"kv64", func(t *testing.T) float64 {
			return batchTyped(t, typedInputs(clients, func(c, i int) element.KV64 {
				return element.KV64{K: rng.Uint64() % 64, V: uint64(c)<<32 | uint64(i)}
			}))
		}, true},
		{"f32", func(t *testing.T) float64 {
			return batchTyped(t, typedInputs(clients, func(c, i int) float32 { return float32(float(c, i)) }))
		}, false},
		{"f64", func(t *testing.T) float64 {
			return batchTyped(t, typedInputs(clients, float))
		}, false},
		{"kv64-max-key", func(t *testing.T) float64 {
			return batchTyped(t, typedInputs(clients, func(c, i int) element.KV64 {
				if i%7 == 0 {
					// Distinct payloads under the padding key, one of
					// them equal to the padding record itself.
					return element.KV64{K: ^uint64(0), V: ^uint64(0) - uint64(i)}
				}
				return element.KV64{K: rng.Uint64() % 64, V: uint64(c)<<32 | uint64(i)}
			}))
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batched := tc.run(t)
			if tc.batch && batched < 2 {
				t.Errorf("batched requests = %v, want a multi-member batch", batched)
			}
			if !tc.batch && batched != 0 {
				t.Errorf("batched requests = %v, want every request solo", batched)
			}
		})
	}
}

// TestBatchKV64TagMeetsPadding: two KV64 requests whose keys use all
// 63 low bits share a run, so the second member's tag turns its
// largest keys into 2^64-1, the run's largest key, and one of those
// records pads the run (so it equals the padding record itself). The
// padded sort must keep every one of them, payloads intact.
func TestBatchKV64TagMeetsPadding(t *testing.T) {
	ins := typedInputs(2, func(c, i int) element.KV64 {
		k := uint64(i % 9)
		if i%5 == 0 {
			k = 1<<63 - 1
		}
		v := uint64(i)
		if c == 1 {
			v = ^uint64(0) - uint64(i)
		}
		return element.KV64{K: k, V: v}
	})
	if batched := batchTyped(t, ins); batched != 2 {
		t.Errorf("batched requests = %v, want both requests in one run", batched)
	}
}

// TestBatchNoRetention pins what a caller may do with a batched
// result: its capacity ends at its length, so appending to it never
// writes into another member's result, and a later run never writes
// into an earlier run's results.
func TestBatchNoRetention(t *testing.T) {
	s, err := New(Config{
		Engine:   parbitonic.Config{Processors: 2, Backend: parbitonic.Native},
		MaxBatch: 2,
		MaxDelay: time.Second,
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first := sortConcurrently(t, s, [][]uint32{{3, 1, 2}, {6, 4, 5}})
	if _, batched := s.Metrics().BatchCount(); batched != 2 {
		t.Fatalf("batched requests = %v, want the two requests in one run", batched)
	}
	want := [][]uint32{{1, 2, 3}, {4, 5, 6}}
	check := func(when string) {
		t.Helper()
		for j := range want {
			if !slices.Equal(first[j], want[j]) {
				t.Fatalf("%s: member %d result is %v, want %v", when, j, first[j], want[j])
			}
		}
	}
	for j, out := range first {
		if cap(out) != len(out) {
			t.Fatalf("member %d result has cap %d, len %d", j, cap(out), len(out))
		}
	}
	grown := append(first[0], 0xDEADBEEF, 0xDEADBEEF, 0xDEADBEEF)
	check("after appending to member 0")
	grown[0] = 0xDEADBEEF
	check("after writing the appended slice")

	second := sortConcurrently(t, s, [][]uint32{{9, 7, 8}, {12, 10, 11}})
	if _, batched := s.Metrics().BatchCount(); batched != 4 {
		t.Fatalf("batched requests = %v, want the second pair in one run too", batched)
	}
	check("after a second batch")
	if !slices.Equal(second[0], []uint32{7, 8, 9}) || !slices.Equal(second[1], []uint32{10, 11, 12}) {
		t.Fatalf("second batch results %v", second)
	}
}

// TestJointContextCancelsWhenAllAbandon: the batch context must stay
// live while any member still waits, and die once every member's
// context is done.
func TestJointContextCancelsWhenAllAbandon(t *testing.T) {
	s := &Server{ctx: context.Background()}
	c1, cancel1 := context.WithCancel(context.Background())
	c2, cancel2 := context.WithCancel(context.Background())
	batch := []*request[uint32]{mkReq(nil), mkReq(nil)}
	batch[0].ctx, batch[1].ctx = c1, c2
	ctx, stop := s.jointContext(batch)
	defer stop()

	cancel1()
	select {
	case <-ctx.Done():
		t.Fatal("joint context died while a member still waits")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("joint context survived all members abandoning")
	}
}

// TestJointContextDeadline: when every member has a deadline the joint
// context carries the LATEST one (no member is cut short; the batch
// dies when no one is left waiting anyway).
func TestJointContextDeadline(t *testing.T) {
	s := &Server{ctx: context.Background()}
	near, cancelN := context.WithTimeout(context.Background(), 50*time.Millisecond)
	far, cancelF := context.WithDeadline(context.Background(), time.Now().Add(10*time.Second))
	defer cancelN()
	defer cancelF()
	batch := []*request[uint32]{mkReq(nil), mkReq(nil)}
	batch[0].ctx, batch[1].ctx = near, far
	ctx, stop := s.jointContext(batch)
	defer stop()
	d, ok := ctx.Deadline()
	if !ok {
		t.Fatal("joint context of all-deadline members must carry a deadline")
	}
	fd, _ := far.Deadline()
	if !d.Equal(fd) {
		t.Fatalf("joint deadline %v, want the latest member deadline %v", d, fd)
	}

	// A mixed batch (one member without a deadline) must not have one.
	batch[1].ctx = context.Background()
	ctx2, stop2 := s.jointContext(batch)
	defer stop2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("joint context must drop the deadline when a member has none")
	}
}
