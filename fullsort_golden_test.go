package parbitonic_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"parbitonic"
	"parbitonic/element"
)

// -update-fullsort-golden regenerates testdata/fullsort_kv64_golden.json
// from the current implementation.
var updateFullSortGolden = flag.Bool("update-fullsort-golden", false, "rewrite testdata/fullsort_kv64_golden.json")

// fullSortGoldenEntry pins one FullSort run's exact output: the hash
// of every record, key and payload, in output order.
type fullSortGoldenEntry struct {
	Case string `json:"case"`
	Sum  string `json:"sum"`
}

// fullSortTieWorkload is 2^lgN KV64 records over eight keys, each with
// its index as payload: every key repeats about 2^lgN/8 times, so the
// output order of the payloads is the order in which the sort's
// rounds break ties.
func fullSortTieWorkload(lgN int) []element.KV64 {
	rng := rand.New(rand.NewSource(30))
	keys := make([]element.KV64, 1<<lgN)
	for i := range keys {
		keys[i] = element.KV64{K: uint64(rng.Intn(8)) << 40, V: uint64(i)}
	}
	return keys
}

// TestFullSortExactOutput pins FullSort's output bit for bit, payload
// order included, at P=2, 4, 8 and 16 on both backends: 2^12 records
// up to P=8, and 2^16 at P=16, the smallest FullSort-shaped size there
// (2^12 keys at P=16 are not), whose second crossing reads segments of
// eight keys. Stable sorting
// alone does not fix it: each round merges its runs in source order,
// so the tie order records how every round reads its peers' data. A
// round that reads a different half of a peer, or reads the right
// keys in another order, reorders payloads of equal keys.
func TestFullSortExactOutput(t *testing.T) {
	var got []fullSortGoldenEntry
	for _, backend := range []parbitonic.Backend{parbitonic.Simulated, parbitonic.Native} {
		for _, c := range []struct{ p, lgN int }{{2, 12}, {4, 12}, {8, 12}, {16, 16}} {
			p := c.p
			cfg := parbitonic.Config{Processors: p, Backend: backend, Verify: true}
			if backend == parbitonic.Simulated {
				cfg.Sim.FusePackUnpack = true // FullSort on the simulator
			}
			keys := fullSortTieWorkload(c.lgN)
			if _, err := parbitonic.Sort(keys, cfg); err != nil {
				t.Fatalf("%v P=%d: %v", backend, p, err)
			}
			got = append(got, fullSortGoldenEntry{Case: fmt.Sprintf("%v/p%d", backend, p), Sum: hashElems(keys)})
		}
	}
	const path = "testdata/fullsort_kv64_golden.json"
	if *updateFullSortGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update-fullsort-golden to create): %v", err)
	}
	var want []fullSortGoldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden entry count changed: have %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("FullSort output drifted: got %+v, want %+v", got[i], want[i])
		}
	}
}
