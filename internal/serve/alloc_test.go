// The race runtime instruments with allocations of its own, so the
// allocator-accounting assertions only mean something unraced.
//go:build !race

package serve

import (
	"testing"
	"time"

	"parbitonic/internal/obs"
)

// Every served request passes through these observation calls, so on
// the success path they must not allocate: the serve layer's per-request
// cost is the sort, not its bookkeeping.
func TestObservationZeroAllocs(t *testing.T) {
	m := newMetrics("u32", func() int { return 0 }, fixedPool{},
		obs.SLOConfig{Threshold: 10 * time.Millisecond, Target: 0.99})
	tr := newReqTrack("req-1", 1024)
	tr.add(obs.StageEngine, 2*time.Millisecond)
	var b obs.StageBreakdown
	b[obs.StageEngine] = 2 * time.Millisecond

	for name, f := range map[string]func(){
		"observeRequest": func() { m.observeRequest(3*time.Millisecond, nil) },
		"observeBatch":   func() { m.observeBatch(2) },
		"Stages.Observe": func() { m.Stages().Observe(b, 3*time.Millisecond, 0, true) },
		"recordRequest":  func() { m.recordRequest(tr, nil, false) },
	} {
		for i := 0; i < 2*(recentKeep+slowestKeep); i++ {
			f() // fill the request rings to their steady-state capacity
		}
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s: %.1f allocs/op on the success path, want 0", name, avg)
		}
	}
}
