// Package tune measures the cost parameters of the machine it is
// running on, the inputs the paper's §3.4 cost model needs to pick an
// execution plan for this host (parbitonic.PlanFor scores the plans;
// see TUNING.md).
//
// The package has two parts:
//
//   - A calibrator (Calibrate) that microbenchmarks the host's local
//     kernels — radix pass, linear merge, bulk copy and one digit
//     round of the parallel radix sort, per element type — and times
//     one empty run and one empty barrier round trip on the native
//     backend, producing a Profile.
//   - A versioned machine-profile JSON (Profile, Save/Load,
//     DefaultPath) so calibration is paid once per host, not per
//     process.
//
// The shipped defaults in spmd.DefaultCosts and logp.MeikoCS2 model
// the paper's 1996 Meiko CS-2; Fallback is this package's equivalent
// for hosts that have never been calibrated. See TUNING.md for the
// handbook.
package tune

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"parbitonic/element"
)

// ProfileSchema identifies the profile JSON document type; Load
// rejects documents claiming a different schema.
const ProfileSchema = "parbitonic-profile"

// ProfileVersion is the current profile format version. Load rejects
// profiles written by a different (older or newer) version with
// ErrProfileVersion: cost semantics may have changed, so a stale
// profile must be re-calibrated rather than silently misread
// (LoadOrFallback plans from Fallback meanwhile). Unknown JSON fields
// are ignored, so adding fields does not require a version bump.
//
// Version 2: the localsort kernel overhaul (cache-blocked hybrid
// radix, branchless splits, mod-free bitonic merges) changed every
// measured kernel constant, so version-1 profiles describe kernels
// that no longer exist and must be re-calibrated.
//
// Version 3: MergeTwo became the closure-free two-run kernel FullSort
// runs (branchless, conditional-move select), which moved the
// calibrated merge_ns; version-2 profiles priced the old loop.
//
// Version 4: the native communication fit (comm, comm_fallback) gave
// way to measured synchronization costs (barrier_ns, run_ns) and a
// measured parallel radix digit round (radix_round_ns); version-3
// profiles carry none of them.
//
// Version 5: MergeTwo runs the two-ended merge kernel, which roughly
// halved the calibrated merge_ns (u32 4.9–5.1 → 2.1–2.4 ns on a 2-vCPU
// x86-64 host); version-4 profiles would price merges about 2× too
// high.
//
// Version 6: the parallel radix sort's digit round scatters into a
// persistent send array and unpacks with one counting scatter, which
// made it about 2.3× cheaper (u32 15.5–23.7 → 8.1–9.7 ns on one
// processor of a 2-vCPU x86-64 host), and radix_round_ns is timed on
// the sync_procs engine, where a round also reads its peers' arrays
// and waits at its barriers (u32 10.3–12.1 ns at P=2); version-5
// profiles would overprice radix sort.
//
// Version 7: compare_ns is gone; no reachable plan read it. The costs
// that remain mean what they meant, but a version-6 build sharing the
// cache path requires compare_ns: it would reject a version-6 profile
// without it as invalid, an error, where a version mismatch only falls
// back.
const ProfileVersion = 7

// ErrProfileVersion is wrapped by the error Load and Validate return
// for a profile written by another format version.
var ErrProfileVersion = errors.New("tune: profile version")

// KernelCosts are the measured local-computation costs for one element
// type, in nanoseconds per element.
type KernelCosts struct {
	// RadixPassNS is one counting pass of LSD radix sort, per element
	// (localsort.RadixSort runs KeyBits/32*3 such passes).
	RadixPassNS float64 `json:"radix_pass_ns"`
	// MergeNS is one linear two-way merge, per element emitted
	// (localsort.MergeTwo).
	MergeNS float64 `json:"merge_ns"`
	// CopyNS is one bulk copy pass, per element — the pack/unpack
	// analogue of the native exchange path.
	CopyNS float64 `json:"copy_ns"`
	// RadixRoundNS is one digit round of the parallel radix sort —
	// digit count, histogram exchange, scatter into the send array, key
	// exchange, scatter of the received runs back home — per element of
	// a processor's share (psort.RadixSort on the native engine of
	// SyncProcs processors, per pass).
	RadixRoundNS float64 `json:"radix_round_ns"`
}

// Profile is a calibrated machine profile: everything the planner
// needs to score a plan on this host. It is persisted as versioned
// JSON (see Save, Load, DefaultPath).
type Profile struct {
	// Schema identifies the document kind; see ProfileSchema.
	Schema string `json:"schema"`
	// Version is the document format version; see ProfileVersion.
	Version int `json:"version"`

	// CreatedAt is the RFC 3339 calibration time, informational only.
	CreatedAt string `json:"created_at,omitempty"`
	// GoOS names the calibrated host's OS; the planner warns nothing,
	// but operators can tell a foreign profile at a glance.
	GoOS string `json:"goos,omitempty"`
	// GoArch names the calibrated host's architecture.
	GoArch string `json:"goarch,omitempty"`
	// CPUs is the calibrated host's logical CPU count.
	CPUs int `json:"cpus,omitempty"`
	// Quick records that the profile came from a -quick calibration
	// (fewer reps, smaller inputs — wider error bars).
	Quick bool `json:"quick,omitempty"`
	// Source is "calibrated" for measured profiles and "fallback" for
	// the shipped defaults.
	Source string `json:"source"`

	// Kernels maps element type names (element.Type.String: "u32",
	// "u64", "f32", "f64", "kv64") to their measured kernel costs. At
	// minimum "u32" must be present; missing types are width-scaled
	// from it (see KernelsFor).
	Kernels map[string]KernelCosts `json:"kernels"`

	// BarrierNS is the wall time of one empty PC.Barrier round trip on
	// an idle native engine, in nanoseconds. With RunNS it is the
	// native backend's communication cost, since a native remap's data
	// movement is local computation.
	BarrierNS float64 `json:"barrier_ns"`
	// RunNS is the wall time of the smallest parallel run on the same
	// idle engine — a sample sort of two keys per processor — in
	// nanoseconds: dispatch, join and one all-to-all round's fixed
	// work, the cost every parallel native plan pays once however few
	// keys it sorts.
	RunNS float64 `json:"run_ns"`
	// SyncProcs is the engine size BarrierNS and RunNS were timed at,
	// the largest power-of-two P <= min(GOMAXPROCS, 8). Zero means they
	// were not measured (a single-core host) and hold the fallback
	// values.
	SyncProcs int `json:"sync_procs,omitempty"`
}

// Validate checks that the profile is internally usable: correct
// schema/version, a "u32" kernel entry, and finite positive costs.
// A version mismatch wraps ErrProfileVersion.
func (p *Profile) Validate() error {
	if p.Schema != ProfileSchema {
		return fmt.Errorf("tune: profile schema %q, want %q", p.Schema, ProfileSchema)
	}
	if p.Version != ProfileVersion {
		return fmt.Errorf("%w %d, want %d — re-run calibration (-calibrate)", ErrProfileVersion, p.Version, ProfileVersion)
	}
	if _, ok := p.Kernels["u32"]; !ok {
		return fmt.Errorf("tune: profile has no u32 kernel costs")
	}
	for name, k := range p.Kernels {
		for _, c := range []struct {
			field string
			v     float64
		}{
			{"radix_pass_ns", k.RadixPassNS}, {"merge_ns", k.MergeNS},
			{"copy_ns", k.CopyNS}, {"radix_round_ns", k.RadixRoundNS},
		} {
			if !positiveCost(c.v) {
				return fmt.Errorf("tune: kernel %s.%s = %v is not a positive cost", name, c.field, c.v)
			}
		}
	}
	if !positiveCost(p.BarrierNS) {
		return fmt.Errorf("tune: barrier_ns = %v is not a positive cost", p.BarrierNS)
	}
	if !positiveCost(p.RunNS) {
		return fmt.Errorf("tune: run_ns = %v is not a positive cost", p.RunNS)
	}
	return nil
}

// positiveCost reports whether v is a usable cost in nanoseconds:
// positive, finite and at most a second.
func positiveCost(v float64) bool { return v > 0 && v <= 1e9 }

// KernelsFor returns the kernel costs for element type t. Types the
// profile was not calibrated for are width-scaled from the u32 entry:
// per-element costs multiply by the element's size in 32-bit words
// (the memory-bound approximation spmd's chargers use). The profile
// must have passed Validate.
func (p *Profile) KernelsFor(t element.Type) KernelCosts {
	if k, ok := p.Kernels[t.String()]; ok {
		return k
	}
	base := p.Kernels["u32"]
	w := float64(t.Width() / 4)
	return KernelCosts{
		RadixPassNS:  base.RadixPassNS * w,
		MergeNS:      base.MergeNS * w,
		CopyNS:       base.CopyNS * w,
		RadixRoundNS: base.RadixRoundNS * w,
	}
}

// Fallback returns the shipped default profile: representative costs
// for a contemporary x86-64 server core, used when no calibrated
// profile exists (or the cached one is from another format version).
// BarrierNS is an empty P=2 barrier round trip and RunNS a P=2
// sample sort of four keys on a 2-vCPU x86-64 host (469–749 ns over
// ten calibrations, 8.3–16.8 µs over five, go1.24), rounded;
// RadixRoundNS keeps the measured cost of a P=2 radix plan relative
// to the sample-sort plan (u32 1.01–1.17×, kv64 1.34–1.55× over five
// calibrations there): against the fallback's own sample-sort terms
// that is 2.64–2.74 ns × width (u32, u64 and kv64 medians), rounded.
// The round is only 1.1–1.3× a u32 radix pass on that host, but the
// fallback radix pass sits about 6× below the host's, so that ratio
// would rank radix sort ahead of the faster sample sort. MergeNS is u32 MergeTwo on that host (2.07–2.37 ns over five
// calibrations), rounded. Like spmd.DefaultCosts for the simulator, these are fallbacks, not
// measurements of your machine — run the calibrator (bitonic-sort
// -calibrate) for host-accurate planning.
func Fallback() *Profile {
	mk := func(w float64) KernelCosts {
		return KernelCosts{
			RadixPassNS:  1.4 * w,
			MergeNS:      2.2 * w,
			CopyNS:       0.35 * w,
			RadixRoundNS: 2.7 * w,
		}
	}
	return &Profile{
		Schema:  ProfileSchema,
		Version: ProfileVersion,
		Source:  "fallback",
		Kernels: map[string]KernelCosts{
			"u32":  mk(1),
			"u64":  mk(2),
			"f32":  mk(1.2),
			"f64":  mk(2.4),
			"kv64": mk(4),
		},
		BarrierNS: 500,
		RunNS:     12000,
	}
}

// DefaultPath returns the default on-disk location of the machine
// profile: <user cache dir>/parbitonic/profile.json.
func DefaultPath() (string, error) {
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("tune: no user cache dir: %w", err)
	}
	return filepath.Join(dir, "parbitonic", "profile.json"), nil
}

// Load reads and validates a profile from path. A profile written by a
// different format version is rejected with an error wrapping
// ErrProfileVersion (re-calibrate instead); unknown JSON fields are
// ignored, so profiles from newer builds that only added fields still
// load.
func Load(path string) (*Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("tune: profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tune: profile %s: %w", path, err)
	}
	return &p, nil
}

// Save writes the profile as indented JSON to path, creating parent
// directories as needed. The write is atomic (temp file + rename) so a
// crash cannot leave a truncated profile behind.
func (p *Profile) Save(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".profile-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadOrFallback loads the profile at path (or DefaultPath when path
// is empty) and falls back to the shipped defaults when none exists or
// when it was written by another format version (ErrProfileVersion):
// a stale profile plans as "(fallback profile)" until the host is
// re-calibrated. The boolean reports whether a calibrated profile was
// used. Other errors — corrupt JSON, a foreign schema, invalid costs —
// are returned, not masked: a profile the operator wrote deliberately
// should never be silently ignored.
func LoadOrFallback(path string) (*Profile, bool, error) {
	if path == "" {
		p, err := DefaultPath()
		if err != nil {
			return Fallback(), false, nil
		}
		path = p
	}
	prof, err := Load(path)
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, ErrProfileVersion) {
			return Fallback(), false, nil
		}
		return nil, false, err
	}
	return prof, true, nil
}

// hostStamp fills the informational host fields of a profile.
func hostStamp(p *Profile) {
	p.GoOS = runtime.GOOS
	p.GoArch = runtime.GOARCH
	p.CPUs = runtime.NumCPU()
}
