// Package device models the rendering hardware of the paper's testbed
// (§4.4): per-device analytic cost models calibrated against the paper's
// measurements, so the benchmark harness can reproduce the *relative*
// behaviour of Tables 2-4 (off-screen penalties, sequential-vs-interleaved
// overlap, PDA frame budgets) deterministically on any machine. The real
// pixels come from internal/raster; these profiles only answer "how long
// would this frame have taken on a 2004 GeForce2/XVR-4000/Onyx".
//
// The model: an on-screen frame costs
//
//	T_on = Setup + weightedTris/TriRate + pixels/FillRate
//
// where weightedTris is the dataset's triangle count scaled by its batch
// weight (datasets with many small batches render less efficiently per
// triangle — the paper's Elle and Galleon behave very differently for
// this reason). Hardware off-screen rendering adds a per-request overhead
//
//	O = OffscreenFixed + pixels/ReadbackRate
//
// (the Java3D request-then-poll cycle plus framebuffer readback, §5.4),
// so a sequential batch of n off-screen frames costs n*(T_on+O) while an
// interleaved batch overlaps most of the overhead: n*T_on + O*(1+(n-1)*
// (1-PipelineOverlap)). Devices whose off-screen path falls back to
// software (the paper suspects the V880z does, §5.4) instead pay a
// software render cost with much lower rates, and interleaving helps only
// by SoftParallel-way CPU parallelism.
package device

import (
	"fmt"
	"strings"
	"time"
)

// Profile is one machine's rendering capability.
type Profile struct {
	Name string
	// TriRate is hardware triangles per second (on-screen).
	TriRate float64
	// FillRate is hardware fill pixels per second.
	FillRate float64
	// Setup is fixed per-frame time in seconds.
	Setup float64
	// OffscreenFixed is the fixed off-screen request overhead in seconds
	// (request initiation plus completion polling).
	OffscreenFixed float64
	// ReadbackRate is off-screen framebuffer readback pixels per second.
	ReadbackRate float64
	// PipelineOverlap in [0,1]: how much of the off-screen overhead
	// interleaved requests hide (§5.4's interleaved test).
	PipelineOverlap float64
	// OffscreenSoftware marks devices whose off-screen path is software.
	OffscreenSoftware bool
	// SoftTriRate and SoftFillRate are the software path rates.
	SoftTriRate  float64
	SoftFillRate float64
	// SoftParallel is how many CPUs the software path can use when
	// requests are interleaved.
	SoftParallel float64
	// SoftWeightBoost amplifies a dataset's batch inefficiency on the
	// software path: each small batch re-enters the software pipeline
	// from the top, so poorly-batched scenes (weight > 1) degrade far
	// more than on hardware, and trivially-batched ones (weight < 1)
	// degrade less. Effective soft weight = 1 + (weight-1)*boost.
	SoftWeightBoost float64
	// TextureMemory bytes, reported during capacity interrogation.
	TextureMemory int64
	// HardwareVolume reports hardware-assisted volume rendering support.
	HardwareVolume bool
}

// Workload describes one frame's geometry for the cost model.
type Workload struct {
	// Triangles on screen.
	Triangles int
	// BatchWeight scales triangle cost for datasets drawn in many small
	// batches (1 = ideal single-batch mesh).
	BatchWeight float64
	// Pixels is the output resolution (w*h).
	Pixels int
}

// weightedTris applies the batch weight.
func (w Workload) weightedTris() float64 {
	bw := w.BatchWeight
	if bw <= 0 {
		bw = 1
	}
	return float64(w.Triangles) * bw
}

// OnScreenTime returns the modeled on-screen frame time.
func (p Profile) OnScreenTime(w Workload) time.Duration {
	sec := p.Setup + w.weightedTris()/p.TriRate + float64(w.Pixels)/p.FillRate
	return secs(sec)
}

// offscreenOverhead is the per-request off-screen cost for the hardware
// path.
func (p Profile) offscreenOverhead(pixels int) float64 {
	return p.OffscreenFixed + float64(pixels)/p.ReadbackRate
}

// softTime is the software off-screen render time.
func (p Profile) softTime(w Workload) float64 {
	bw := w.BatchWeight
	if bw <= 0 {
		bw = 1
	}
	boost := p.SoftWeightBoost
	if boost <= 0 {
		boost = 1
	}
	softWeight := 1 + (bw-1)*boost
	if softWeight < 0.05 {
		softWeight = 0.05
	}
	tris := float64(w.Triangles) * softWeight
	return tris/p.SoftTriRate + float64(w.Pixels)/p.SoftFillRate
}

// OffScreenTime returns the modeled time for a single off-screen frame.
func (p Profile) OffScreenTime(w Workload) time.Duration {
	if p.OffscreenSoftware {
		return secs(p.softTime(w))
	}
	on := float64(p.OnScreenTime(w)) / float64(time.Second)
	return secs(on + p.offscreenOverhead(w.Pixels))
}

// OffScreenBatch returns the modeled time to render n off-screen frames,
// either sequentially (request, wait, repeat) or interleaved (all
// requests in flight, round-robin completion) — the §5.4 experiment.
func (p Profile) OffScreenBatch(w Workload, n int, interleaved bool) time.Duration {
	if n < 1 {
		n = 1
	}
	if p.OffscreenSoftware {
		total := p.softTime(w) * float64(n)
		if interleaved && p.SoftParallel > 1 {
			total /= p.SoftParallel
		}
		return secs(total)
	}
	on := float64(p.OnScreenTime(w)) / float64(time.Second)
	o := p.offscreenOverhead(w.Pixels)
	if !interleaved {
		return secs(float64(n) * (on + o))
	}
	hidden := p.PipelineOverlap
	if hidden < 0 {
		hidden = 0
	}
	if hidden > 1 {
		hidden = 1
	}
	if n == 1 {
		// A single request has nothing to overlap with.
		return secs(on + o)
	}
	// In the steady-state round-robin stream each request's overhead
	// (readback + completion poll) proceeds while another request
	// renders, leaving only the un-hideable residual exposed.
	total := float64(n) * (on + o*(1-hidden))
	return secs(total)
}

// OffScreenRatio returns off-screen speed as a fraction of on-screen
// speed for one frame (Table 3's percentages).
func (p Profile) OffScreenRatio(w Workload) float64 {
	return float64(p.OnScreenTime(w)) / float64(p.OffScreenTime(w))
}

// BatchRatio returns the batch's speed as a fraction of rendering the
// same n frames on-screen (Table 4's percentages).
func (p Profile) BatchRatio(w Workload, n int, interleaved bool) float64 {
	on := float64(p.OnScreenTime(w)) * float64(n)
	return on / float64(p.OffScreenBatch(w, n, interleaved))
}

// PolysPerSecond returns the sustained on-screen triangle rate for
// capacity reports.
func (p Profile) PolysPerSecond() float64 { return p.TriRate }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Dataset batch weights for the paper's models: Elle (a VRML scene of
// many small shapes) renders less efficiently per triangle than the big
// single-mesh scanner models; the Galleon's tiny parts are cheaper than
// its triangle count suggests because most are backface-culled along the
// hull.
const (
	WeightElle     = 1.4
	WeightGalleon  = 0.8
	WeightHand     = 1.0
	WeightSkeleton = 1.0
)

// Testbed profiles (§4.4), calibrated against Tables 2-4. Rates are
// "effective" 2004 rates, not marketing numbers.
var (
	// CentrinoLaptop: Intel Centrino 1.6 GHz + GeForce2 420 Go — the
	// render service used for the PDA tests (Table 2).
	CentrinoLaptop = Profile{
		Name:            "GeForce2 420 Go / Centrino 1.6GHz",
		TriRate:         8.5e6,
		FillRate:        550e6,
		Setup:           0.00055,
		OffscreenFixed:  0.0138,
		ReadbackRate:    18e6,
		PipelineOverlap: 0.92,
		TextureMemory:   32 << 20,
	}

	// AthlonDesktop: AMD Athlon 1.2 GHz + GeForce2 GTS.
	AthlonDesktop = Profile{
		Name:            "GeForce2 GTS / Athlon 1.2GHz",
		TriRate:         9.5e6,
		FillRate:        700e6,
		Setup:           0.00045,
		OffscreenFixed:  0.0102,
		ReadbackRate:    24e6,
		PipelineOverlap: 0.93,
		TextureMemory:   64 << 20,
	}

	// SunV880z: Sun Fire V880z + XVR-4000 (UltraSPARC III 900 MHz).
	// Off-screen rendering appears to run in software (§5.4).
	SunV880z = Profile{
		Name:              "XVR-4000 / Sun Fire V880z",
		TriRate:           21e6,
		FillRate:          900e6,
		Setup:             0.0005,
		OffscreenSoftware: true,
		SoftTriRate:       1.01e6,
		SoftFillRate:      40e6,
		SoftWeightBoost:   4,
		SoftParallel:      1.6,
		TextureMemory:     256 << 20,
		HardwareVolume:    true,
	}

	// XeonDesktop: dual 2.4 GHz Xeon + Quadro FX3000G.
	XeonDesktop = Profile{
		Name:            "FX3000G / dual Xeon 2.4GHz",
		TriRate:         28e6,
		FillRate:        1.6e9,
		Setup:           0.0003,
		OffscreenFixed:  0.006,
		ReadbackRate:    60e6,
		PipelineOverlap: 0.94,
		TextureMemory:   256 << 20,
	}

	// SGIOnyx: SGI Onyx 3000, 32 CPUs, three InfiniteReality pipes.
	SGIOnyx = Profile{
		Name:            "InfiniteReality / SGI Onyx 3000",
		TriRate:         35e6,
		FillRate:        2.4e9,
		Setup:           0.0004,
		OffscreenFixed:  0.004,
		ReadbackRate:    80e6,
		PipelineOverlap: 0.95,
		TextureMemory:   1 << 30,
		HardwareVolume:  true,
	}

	// ZaurusPDA: Sharp Zaurus — no 3D hardware; it only receives and
	// blits frames (Table 2's thin client). Rates model its CPU blit.
	ZaurusPDA = Profile{
		Name:     "Sharp Zaurus PDA",
		TriRate:  30e3,
		FillRate: 12e6,
		Setup:    0.002,
		// Off-screen irrelevant: the PDA never renders server-side.
		OffscreenFixed: 1,
		ReadbackRate:   1e6,
		TextureMemory:  4 << 20,
	}
)

// Testbed lists all profiles.
func Testbed() []Profile {
	return []Profile{CentrinoLaptop, AthlonDesktop, SunV880z, XeonDesktop, SGIOnyx, ZaurusPDA}
}

// keys are the short names the command-line tools take for a profile.
var keys = map[string]Profile{
	"centrino": CentrinoLaptop, "laptop": CentrinoLaptop,
	"athlon": AthlonDesktop,
	"v880z":  SunV880z, "sun": SunV880z,
	"xeon": XeonDesktop,
	"onyx": SGIOnyx, "sgi": SGIOnyx,
	"pda": ZaurusPDA, "zaurus": ZaurusPDA,
}

// ByName finds a profile by its short key, in any case, or by its Name
// field.
func ByName(name string) (Profile, error) {
	if p, ok := keys[strings.ToLower(name)]; ok {
		return p, nil
	}
	for _, p := range Testbed() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("device: unknown profile %q (centrino|athlon|v880z|xeon|onyx|pda)", name)
}
