package machine

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"parbitonic/internal/addr"
	"parbitonic/internal/localsort"
	"parbitonic/internal/logp"
	"parbitonic/internal/schedule"
	"parbitonic/internal/spmd"
)

func testConfig(p int, long bool) Config {
	cfg := DefaultConfig(p)
	cfg.Long = long
	return cfg
}

func mustNew(t testing.TB, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func mustRun(t testing.TB, m *Machine, data [][]uint32, body func(*Proc)) Result {
	t.Helper()
	res, err := m.Run(data, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestRunClockIsMakespan(t *testing.T) {
	m := mustNew(t, testConfig(4, true))
	res := mustRun(t, m, nil, func(p *Proc) {
		p.ChargeCompute(float64(p.ID) * 10) // proc 3 is slowest
	})
	if res.Time != 30 {
		t.Errorf("makespan %v, want 30", res.Time)
	}
	if res.Sum.ComputeTime != 60 {
		t.Errorf("summed compute %v, want 60", res.Sum.ComputeTime)
	}
	if res.Mean.ComputeTime != 15 {
		t.Errorf("mean compute %v, want 15", res.Mean.ComputeTime)
	}
}

func TestBarrierSyncsClocks(t *testing.T) {
	m := mustNew(t, testConfig(8, true))
	mustRun(t, m, nil, func(p *Proc) {
		p.ChargeCompute(float64(p.ID))
		p.Barrier()
		if p.Clock != 7 {
			t.Errorf("proc %d clock %v after barrier, want 7", p.ID, p.Clock)
		}
	})
}

func TestExchangeDelivers(t *testing.T) {
	const P = 8
	m := mustNew(t, testConfig(P, true))
	mustRun(t, m, nil, func(p *Proc) {
		out := make([][]uint32, P)
		for q := 0; q < P; q++ {
			out[q] = []uint32{uint32(p.ID*100 + q)}
		}
		in := p.Exchange(out)
		for src := 0; src < P; src++ {
			if len(in[src]) != 1 || in[src][0] != uint32(src*100+p.ID) {
				t.Errorf("proc %d: from %d got %v", p.ID, src, in[src])
			}
		}
	})
}

func TestExchangeAccounting(t *testing.T) {
	const P = 4
	for _, long := range []bool{true, false} {
		m := mustNew(t, testConfig(P, long))
		res := mustRun(t, m, nil, func(p *Proc) {
			out := make([][]uint32, P)
			for q := 0; q < P; q++ {
				out[q] = make([]uint32, 10)
			}
			out[(p.ID+1)%P] = nil // skip one destination
			p.Exchange(out)
		})
		// Each proc sends to P-2 others (skipping itself and one nil).
		wantVol, wantMsgs := 10*(P-2), P-2
		for i, s := range res.PerProc {
			if s.VolumeSent != wantVol || s.MessagesSent != wantMsgs {
				t.Errorf("long=%v proc %d: vol=%d msgs=%d, want %d/%d", long, i, s.VolumeSent, s.MessagesSent, wantVol, wantMsgs)
			}
			var want float64
			model := m.Config().Model
			if long {
				want = model.LongRemapTime(wantVol, wantMsgs)
			} else {
				want = model.ShortRemapTime(wantVol)
			}
			if math.Abs(s.TransferTime-want) > 1e-9 {
				t.Errorf("long=%v proc %d: transfer %v, want %v", long, i, s.TransferTime, want)
			}
		}
	}
}

func TestPairExchange(t *testing.T) {
	const P = 8
	m := mustNew(t, testConfig(P, true))
	mustRun(t, m, nil, func(p *Proc) {
		partner := p.ID ^ 1
		got := p.PairExchange(partner, []uint32{uint32(p.ID)})
		if len(got) != 1 || got[0] != uint32(partner) {
			t.Errorf("proc %d: got %v from partner %d", p.ID, got, partner)
		}
	})
}

// Remap must move the data exactly as the sequential reference
// addr.Apply does, for both message modes and both fusion settings.
func TestRemapMatchesApply(t *testing.T) {
	lgN, lgP := 10, 3
	P := 1 << uint(lgP)
	rng := rand.New(rand.NewSource(7))
	layouts := []*addr.Layout{
		addr.Blocked(lgN, lgP),
		addr.Smart(lgN, lgP, 1, lgN-lgP+1),
		addr.Smart(lgN, lgP, 2, 3),
		addr.Cyclic(lgN, lgP),
		addr.Blocked(lgN, lgP),
	}
	for _, long := range []bool{true, false} {
		for _, fused := range []bool{false, true} {
			data := make([][]uint32, P)
			for p := range data {
				data[p] = make([]uint32, 1<<uint(lgN-lgP))
				for i := range data[p] {
					data[p][i] = rng.Uint32()
				}
			}
			want := data
			m := mustNew(t, testConfig(P, long))
			mustRun(t, m, data, func(p *Proc) {
				// Remap hands each old array back as the next destination,
				// so copy the input that want still reads.
				p.Data = append([]uint32(nil), p.Data...)
				spare := make([]uint32, len(p.Data))
				for i := 1; i < len(layouts); i++ {
					plan := addr.NewRemapPlan(layouts[i-1], layouts[i])
					spare = p.Remap(plan, fused, spare)
				}
			})
			for i := 1; i < len(layouts); i++ {
				want = addr.Apply(layouts[i-1], layouts[i], want)
			}
			got := m.Data()
			for p := 0; p < P; p++ {
				for l := range got[p] {
					if got[p][l] != want[p][l] {
						t.Fatalf("long=%v fused=%v: mismatch at proc %d local %d", long, fused, p, l)
					}
				}
			}
		}
	}
}

// Remap charges the §3.4 pipeline: pack and unpack per long-message
// remap unless fused, nothing for them with short messages.
func TestRemapPhaseCharges(t *testing.T) {
	lgN, lgP := 8, 2
	P := 1 << uint(lgP)
	n := 1 << uint(lgN-lgP)
	plan := addr.NewRemapPlan(addr.Blocked(lgN, lgP), addr.Cyclic(lgN, lgP))
	run := func(long, fused bool) Result {
		data := make([][]uint32, P)
		for p := range data {
			data[p] = make([]uint32, n)
		}
		m := mustNew(t, testConfig(P, long))
		return mustRun(t, m, data, func(p *Proc) { p.Remap(plan, fused, make([]uint32, n)) })
	}

	longSep := run(true, false)
	costs := DefaultCosts()
	for i, s := range longSep.PerProc {
		if math.Abs(s.PackTime-costs.Pack*float64(n)) > 1e-9 {
			t.Errorf("proc %d pack time %v", i, s.PackTime)
		}
		if math.Abs(s.UnpackTime-costs.Unpack*float64(n)) > 1e-9 {
			t.Errorf("proc %d unpack time %v", i, s.UnpackTime)
		}
		if s.Remaps != 1 {
			t.Errorf("proc %d remaps %d", i, s.Remaps)
		}
	}

	longFused := run(true, true)
	if longFused.Sum.PackTime != 0 || longFused.Sum.UnpackTime != 0 {
		t.Error("fused remap should charge no pack/unpack time")
	}
	if longFused.Time >= longSep.Time {
		t.Error("fused remap should be faster than separate phases")
	}

	short := run(false, false)
	if short.Sum.PackTime != 0 || short.Sum.UnpackTime != 0 {
		t.Error("short messages have no pack/unpack phases")
	}
	if short.Time <= longSep.Time {
		t.Error("short messages should be slower than long messages at this size")
	}
}

// Lemma 4 made operational: during a smart remap the per-processor
// volume must be n - n/2^changed.
func TestRemapVolumeMatchesLemma4(t *testing.T) {
	lgN, lgP := 10, 3
	P := 1 << uint(lgP)
	n := 1 << uint(lgN-lgP)
	old := addr.Blocked(lgN, lgP)
	new := addr.Smart(lgN, lgP, 1, lgN-lgP+1)
	plan := addr.NewRemapPlan(old, new)
	data := make([][]uint32, P)
	for p := range data {
		data[p] = make([]uint32, n)
	}
	m := mustNew(t, testConfig(P, true))
	res := mustRun(t, m, data, func(p *Proc) { p.Remap(plan, false, make([]uint32, n)) })
	want := n - n>>uint(plan.Changed)
	for i, s := range res.PerProc {
		if s.VolumeSent != want {
			t.Errorf("proc %d sent %d keys, Lemma 4 wants %d", i, s.VolumeSent, want)
		}
		if s.MessagesSent != plan.GroupSize()-1 {
			t.Errorf("proc %d sent %d messages, want %d", i, s.MessagesSent, plan.GroupSize()-1)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	const P = 8
	body := func(p *Proc) {
		for round := 0; round < 5; round++ {
			p.ChargeCompute(float64((p.ID*7+round)%5) + 1)
			out := make([][]uint32, P)
			for q := range out {
				out[q] = make([]uint32, (p.ID+q+round)%4)
			}
			p.Exchange(out)
		}
	}
	m1 := mustNew(t, testConfig(P, true))
	r1 := mustRun(t, m1, nil, body)
	m2 := mustNew(t, testConfig(P, true))
	r2 := mustRun(t, m2, nil, body)
	if r1.Time != r2.Time {
		t.Errorf("nondeterministic makespan: %v vs %v", r1.Time, r2.Time)
	}
	for i := range r1.PerProc {
		if r1.PerProc[i] != r2.PerProc[i] {
			t.Errorf("nondeterministic stats on proc %d", i)
		}
	}
}

func TestPanicSurfacesAsErrorWithoutDeadlock(t *testing.T) {
	m := mustNew(t, testConfig(4, true))
	_, err := m.Run(nil, func(p *Proc) {
		if p.ID == 2 {
			panic("boom")
		}
		p.Barrier() // would deadlock without poisoning
	})
	var pe *spmd.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *spmd.PanicError", err)
	}
	if pe.Proc != 2 || pe.Value != "boom" || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("PanicError{Proc: %d, Value: %v, stack %d bytes}", pe.Proc, pe.Value, len(pe.Stack))
	}
	// The machine must be reusable after a failure.
	res := mustRun(t, m, nil, func(p *Proc) { p.Barrier() })
	if res.Time != 0 {
		t.Errorf("post-failure run time %v", res.Time)
	}
}

func TestNewRejectsBadP(t *testing.T) {
	for _, p := range []int{0, 3, -4, 6} {
		if _, err := New(testConfig(p, true)); err == nil {
			t.Errorf("P=%d should be rejected", p)
		}
	}
}

func TestTimePerKey(t *testing.T) {
	r := Result{Time: 1000}
	if got := r.TimePerKey(500); got != 2 {
		t.Errorf("TimePerKey = %v", got)
	}
}

func TestChargeHelpers(t *testing.T) {
	m := mustNew(t, Config{P: 1, Model: logp.MeikoCS2(1), Costs: CostModel{
		RadixPass: 2, RadixPasses: 3, Merge: 5, CompareExchange: 7, Pack: 1, Unpack: 1,
	}, Long: true})
	res := mustRun(t, m, nil, func(p *Proc) {
		p.ChargeRadixSort(10)       // 2*3*10 = 60
		p.ChargeMerge(10)           // 50
		p.ChargeCompareExchange(10) // 70
	})
	if res.Time != 180 {
		t.Errorf("charged %v, want 180", res.Time)
	}
}

func TestCacheFactor(t *testing.T) {
	c := DefaultCosts()
	if f := c.CacheFactor(1 << c.LgCacheKeys); f != 1 {
		t.Errorf("at-cache factor %v, want 1", f)
	}
	small := c.CacheFactor(1 << 10)
	big := c.CacheFactor(1 << (c.LgCacheKeys + 3))
	if small != 1 {
		t.Errorf("in-cache factor %v, want 1", small)
	}
	want := 1 + 3*c.CacheAlpha
	if math.Abs(big-want) > 1e-12 {
		t.Errorf("3-doublings factor %v, want %v", big, want)
	}
	zero := CostModel{RadixPasses: 1}
	if zero.CacheFactor(1<<30) != 1 {
		t.Error("zero alpha must be free")
	}
}

// TestPublishInPlace pins PublishInPlace's contract on every remap of
// the FullSort schedules at P=2, 4, 8 and 16: each processor publishes
// its keys stored ascending by rank, local address l at l, or at n-1-l
// when its region is descending, and every receiver reads its messages
// out of the published arrays as deal views (localsort.DealtRun).
// Unpacked through the unpack mask, those views land the keys where
// addr.Apply does, and counters and clocks equal those of the fused
// gather, Remap(plan, true, dst), on the same plan.
func TestPublishInPlace(t *testing.T) {
	const lgN = 16 // FullSort-shaped at every P here (2^12 keys at P=16 are not)
	for lgP := 1; lgP <= 4; lgP++ {
		P, n := 1<<uint(lgP), 1<<uint(lgN-lgP)
		for ri, r := range schedule.New(lgN, lgP, schedule.Head) {
			plan := r.Plan
			s, c, ok := plan.Deal()
			if !ok {
				t.Fatalf("P=%d remap %d is not a deal", P, ri)
			}
			rng := rand.New(rand.NewSource(int64(P*100 + ri)))
			data := make([][]uint32, P)
			desc := make([]bool, P)
			for p := range data {
				data[p] = make([]uint32, n)
				for i := range data[p] {
					data[p][i] = rng.Uint32()
				}
				desc[p] = rng.Intn(2) == 0
			}
			want := addr.Apply(plan.Old, plan.New, data)
			clone := func() [][]uint32 {
				out := make([][]uint32, P)
				for p := range data {
					out[p] = append([]uint32(nil), data[p]...)
				}
				return out
			}
			m := mustNew(t, testConfig(P, true))
			gathered := mustRun(t, m, clone(), func(p *Proc) {
				p.Remap(plan, true, make([]uint32, n))
			})
			inPlace := mustRun(t, m, clone(), func(p *Proc) {
				arr := make([]uint32, n)
				for l, v := range p.Data {
					if desc[p.ID] {
						l = n - 1 - l
					}
					arr[l] = v
				}
				g := plan.Member(p.ID)
				in := p.PublishInPlace(plan, arr)
				if p.Data != nil {
					t.Errorf("P=%d proc %d: PublishInPlace left Data set", P, p.ID)
				}
				next := make([]uint32, n)
				msg := make([]uint32, plan.MsgLen)
				for src, sent := range in {
					if sent == nil {
						continue
					}
					localsort.MergeRuns(msg, []localsort.Run{localsort.DealtRun(sent, s, c, g, desc[src])})
					for k, v := range msg {
						if desc[src] {
							k = len(msg) - 1 - k // the view reads the message from its tail
						}
						next[plan.UnpackLocal(src, k)] = v
					}
				}
				p.Data = next
			})
			for p := 0; p < P; p++ {
				for l := 0; l < n; l++ {
					if m.Data()[p][l] != want[p][l] {
						t.Fatalf("P=%d remap %d (s=%d, c=%d): deal views differ from addr.Apply at (%d,%d)", P, ri, s, c, p, l)
					}
				}
				a, b := gathered.PerProc[p], inPlace.PerProc[p]
				if a.VolumeSent != b.VolumeSent || a.MessagesSent != b.MessagesSent || a.TransferTime != b.TransferTime || a.Remaps != b.Remaps {
					t.Errorf("P=%d remap %d proc %d: in place sent %d keys in %d messages, transfer %v, %d remaps; fused Remap %d, %d, %v, %d",
						P, ri, p, b.VolumeSent, b.MessagesSent, b.TransferTime, b.Remaps, a.VolumeSent, a.MessagesSent, a.TransferTime, a.Remaps)
				}
			}
			if gathered.Time != inPlace.Time || inPlace.Sum.PackTime != 0 || inPlace.Sum.UnpackTime != 0 {
				t.Errorf("P=%d remap %d: in-place makespan %v (pack %v, unpack %v), fused Remap %v", P, ri, inPlace.Time, inPlace.Sum.PackTime, inPlace.Sum.UnpackTime, gathered.Time)
			}
		}
	}
}

// TestPublishInPlaceValidation: publishing an array of the wrong
// length surfaces as a *spmd.PanicError, not a deadlock.
func TestPublishInPlaceValidation(t *testing.T) {
	plan := addr.NewRemapPlan(addr.Blocked(4, 1), addr.Cyclic(4, 1))
	m := mustNew(t, testConfig(2, true))
	_, err := m.Run(nil, func(p *Proc) {
		p.PublishInPlace(plan, make([]uint32, 1)) // plan.Old.LocalN() is 8
	})
	var pe *spmd.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("short published array returned %v, want *spmd.PanicError", err)
	}
}
