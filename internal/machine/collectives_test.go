package machine

import "testing"

func TestAllGather(t *testing.T) {
	const P = 8
	m := mustNew(t, testConfig(P, true))
	mustRun(t, m, nil, func(p *Proc) {
		in := p.AllGather([]uint32{uint32(p.ID), uint32(p.ID * 2)})
		for src := 0; src < P; src++ {
			if len(in[src]) != 2 || in[src][0] != uint32(src) || in[src][1] != uint32(src*2) {
				t.Errorf("proc %d: from %d got %v", p.ID, src, in[src])
			}
		}
	})
}
