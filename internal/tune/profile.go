// Package tune closes the loop the paper opens in §3.4: it measures
// the cost parameters of the machine it is running on and uses the
// paper's closed forms to pick the execution plan — algorithm,
// processor count, backend, remap strategy — that the model predicts
// fastest for a given data size and element type.
//
// The package has three parts:
//
//   - A calibrator (Calibrate) that microbenchmarks the host's local
//     kernels — radix pass, linear merge, compare-exchange sweep, bulk
//     copy, per element type — and fits the effective LogGP-style
//     communication parameters of the native backend's exchange path
//     from measured runs, producing a Profile.
//   - A versioned machine-profile JSON (Profile, Save/Load,
//     DefaultPath) so calibration is paid once per host, not per
//     process.
//   - A planner (Planner) that enumerates candidate plans and scores
//     each with the §3.4 cost model T = (L+2o-g)R + GV + (g-G)M plus
//     the local-computation terms, returning the predicted-fastest
//     Plan.
//
// The shipped defaults in spmd.DefaultCosts and logp.MeikoCS2 model
// the paper's 1996 Meiko CS-2; Fallback is this package's equivalent
// for hosts that have never been calibrated. See TUNING.md for the
// handbook.
package tune

import (
	"encoding/json"
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
// profiles written by a different (older or newer) version: cost
// semantics may have changed, so a stale profile must be re-calibrated
// rather than silently misread. Unknown JSON fields are ignored, so
// adding fields does not require a version bump.
//
// Version 2: the localsort kernel overhaul (cache-blocked hybrid
// radix, branchless splits, mod-free bitonic merges) changed every
// measured kernel constant, so version-1 profiles describe kernels
// that no longer exist and must be re-calibrated.
//
// Version 3: MergeTwo became the closure-free two-run kernel FullSort
// runs (branchless, conditional-move select), which moved the
// calibrated merge_ns; version-2 profiles priced the old loop.
const ProfileVersion = 3

// KernelCosts are the measured local-computation costs for one element
// type, in nanoseconds per element.
type KernelCosts struct {
	// RadixPassNS is one counting pass of LSD radix sort, per element
	// (localsort.RadixSort runs KeyBits/32*3 such passes).
	RadixPassNS float64 `json:"radix_pass_ns"`
	// MergeNS is one linear two-way merge, per element emitted
	// (localsort.MergeTwo).
	MergeNS float64 `json:"merge_ns"`
	// CompareNS is one compare-exchange network step over the local
	// data, per element (bitseq.Split).
	CompareNS float64 `json:"compare_ns"`
	// CopyNS is one bulk copy pass, per element — the pack/unpack
	// analogue of the native exchange path.
	CopyNS float64 `json:"copy_ns"`
}

// CommCosts are the fitted communication costs of the native backend's
// exchange path, in nanoseconds, expressed in the §3.4 shape
// T_comm = RemapNS·R + WordNS·(V·words) + MsgNS·M. RemapNS plays the
// role of (L+2o-g) — the fixed per-collective cost, dominated on a
// shared-memory host by barrier synchronization — WordNS the role of G
// (per 4-byte word of volume), and MsgNS the role of (g-G) (per
// message).
type CommCosts struct {
	// RemapNS is the fixed cost per collective exchange (the (L+2o-g)
	// analogue).
	RemapNS float64 `json:"remap_ns"`
	// WordNS is the cost per 4-byte word of transferred volume (the G
	// analogue).
	WordNS float64 `json:"word_ns"`
	// MsgNS is the cost per message (the (g-G) analogue).
	MsgNS float64 `json:"msg_ns"`
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

	// Comm holds the fitted native-backend communication costs.
	Comm CommCosts `json:"comm"`
	// CommFallback names the Comm coefficients (CommCosts JSON keys)
	// the calibration could not identify and took from Fallback: all
	// three on a single-core host, and those whose R/V/M columns were
	// collinear in the observed runs (msg_ns at P=2, where M repeats R).
	CommFallback []string `json:"comm_fallback,omitempty"`
}

// Validate checks that the profile is internally usable: correct
// schema/version, a "u32" kernel entry, and finite positive costs.
func (p *Profile) Validate() error {
	if p.Schema != ProfileSchema {
		return fmt.Errorf("tune: profile schema %q, want %q", p.Schema, ProfileSchema)
	}
	if p.Version != ProfileVersion {
		return fmt.Errorf("tune: profile version %d, want %d — re-run calibration (-calibrate)", p.Version, ProfileVersion)
	}
	base, ok := p.Kernels["u32"]
	if !ok {
		return fmt.Errorf("tune: profile has no u32 kernel costs")
	}
	for name, k := range p.Kernels {
		for _, c := range []struct {
			field string
			v     float64
		}{
			{"radix_pass_ns", k.RadixPassNS}, {"merge_ns", k.MergeNS},
			{"compare_ns", k.CompareNS}, {"copy_ns", k.CopyNS},
		} {
			if !(c.v > 0) || c.v > 1e9 {
				return fmt.Errorf("tune: kernel %s.%s = %v is not a positive cost", name, c.field, c.v)
			}
		}
	}
	_ = base
	for _, c := range []struct {
		field string
		v     float64
	}{
		{"remap_ns", p.Comm.RemapNS}, {"word_ns", p.Comm.WordNS}, {"msg_ns", p.Comm.MsgNS},
	} {
		if c.v < 0 || c.v != c.v {
			return fmt.Errorf("tune: comm %s = %v must be finite and non-negative", c.field, c.v)
		}
	}
	return nil
}

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
		RadixPassNS: base.RadixPassNS * w,
		MergeNS:     base.MergeNS * w,
		CompareNS:   base.CompareNS * w,
		CopyNS:      base.CopyNS * w,
	}
}

// Fallback returns the shipped default profile: representative costs
// for a contemporary x86-64 server core, used when no calibrated
// profile exists. Like spmd.DefaultCosts for the simulator, these are
// fallbacks, not measurements of your machine — run the calibrator
// (bitonic-sort -calibrate) for host-accurate planning.
func Fallback() *Profile {
	mk := func(w float64) KernelCosts {
		return KernelCosts{
			RadixPassNS: 1.4 * w,
			MergeNS:     2.4 * w,
			CompareNS:   1.6 * w,
			CopyNS:      0.35 * w,
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
		Comm: CommCosts{RemapNS: 30000, WordNS: 0.35, MsgNS: 300},
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
// different format version is rejected (re-calibrate instead); unknown
// JSON fields are ignored, so profiles from newer builds that only
// added fields still load.
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
// is empty) and falls back to the shipped defaults when none exists.
// The boolean reports whether a calibrated profile was found. Errors
// other than absence — corrupt JSON, version mismatch — are returned,
// not masked: a profile the operator wrote deliberately should never
// be silently ignored.
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
		if os.IsNotExist(err) {
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
