package device

import (
	"testing"
	"time"
)

// Paper workloads: Elle and Galleon at the two benchmark resolutions.
func elle(px int) Workload {
	return Workload{Triangles: 50_000, BatchWeight: WeightElle, Pixels: px}
}

func galleon(px int) Workload {
	return Workload{Triangles: 5_500, BatchWeight: WeightGalleon, Pixels: px}
}

func TestOnScreenTimeMonotone(t *testing.T) {
	p := CentrinoLaptop
	small := p.OnScreenTime(Workload{Triangles: 1000, Pixels: 200 * 200})
	big := p.OnScreenTime(Workload{Triangles: 1_000_000, Pixels: 200 * 200})
	if big <= small {
		t.Error("more triangles not slower")
	}
	lowRes := p.OnScreenTime(Workload{Triangles: 1000, Pixels: 100 * 100})
	hiRes := p.OnScreenTime(Workload{Triangles: 1000, Pixels: 1000 * 1000})
	if hiRes <= lowRes {
		t.Error("more pixels not slower")
	}
	// Zero batch weight defaults to 1, not free.
	free := p.OnScreenTime(Workload{Triangles: 1_000_000, BatchWeight: 0, Pixels: 100})
	if free <= p.OnScreenTime(Workload{Triangles: 10, Pixels: 100}) {
		t.Error("zero batch weight made triangles free")
	}
}

func TestOffScreenSlowerThanOnScreen(t *testing.T) {
	for _, p := range Testbed() {
		w := elle(400 * 400)
		if p.OffScreenTime(w) <= p.OnScreenTime(w) {
			t.Errorf("%s: off-screen faster than on-screen", p.Name)
		}
		r := p.OffScreenRatio(w)
		if r <= 0 || r >= 1 {
			t.Errorf("%s: off-screen ratio %v out of (0,1)", p.Name, r)
		}
	}
}

// Table 3's qualitative structure: on hardware devices the *larger* model
// has the better off-screen ratio (overhead amortized); on the V880z's
// software path the larger model is catastrophically worse.
func TestTable3Shape(t *testing.T) {
	px := 400 * 400
	for _, p := range []Profile{CentrinoLaptop, AthlonDesktop} {
		rElle := p.OffScreenRatio(elle(px))
		rGal := p.OffScreenRatio(galleon(px))
		if rElle <= rGal {
			t.Errorf("%s: Elle ratio %.2f <= Galleon %.2f (hardware overhead should amortize)",
				p.Name, rElle, rGal)
		}
		// Calibration: Elle in the 25-50%% band, Galleon under 15%.
		if rElle < 0.25 || rElle > 0.5 {
			t.Errorf("%s: Elle off-screen ratio %.2f outside paper band", p.Name, rElle)
		}
		if rGal > 0.15 {
			t.Errorf("%s: Galleon off-screen ratio %.2f outside paper band", p.Name, rGal)
		}
	}
	// V880z software path inverts the relationship.
	rElle := SunV880z.OffScreenRatio(elle(px))
	rGal := SunV880z.OffScreenRatio(galleon(px))
	if rElle >= rGal {
		t.Errorf("V880z: Elle %.2f >= Galleon %.2f (software path should invert)", rElle, rGal)
	}
	if rElle > 0.06 {
		t.Errorf("V880z Elle ratio %.3f, paper ~0.03", rElle)
	}
	if rGal < 0.08 || rGal > 0.3 {
		t.Errorf("V880z Galleon ratio %.3f, paper ~0.16", rGal)
	}
}

// Table 4's structure: interleaving beats sequential everywhere, and on
// hardware devices interleaved rendering approaches on-screen speed.
func TestTable4Shape(t *testing.T) {
	px := 200 * 200
	for _, p := range Testbed()[:5] { // all render-capable devices
		for _, w := range []Workload{elle(px), galleon(px)} {
			seq := p.BatchRatio(w, 4, false)
			intl := p.BatchRatio(w, 4, true)
			if intl <= seq {
				t.Errorf("%s: interleaved %.2f <= sequential %.2f", p.Name, intl, seq)
			}
			if intl > 1.0001 {
				t.Errorf("%s: interleaved ratio %.2f above unity", p.Name, intl)
			}
		}
	}
	// Hardware interleaved Elle approaches on-screen speed (paper: 90%).
	if r := CentrinoLaptop.BatchRatio(elle(px), 4, true); r < 0.6 {
		t.Errorf("Centrino interleaved Elle ratio %.2f, paper ~0.90", r)
	}
	// Software interleave gains little for the big model (paper: 3->4%).
	seqS := SunV880z.BatchRatio(elle(px), 4, false)
	intS := SunV880z.BatchRatio(elle(px), 4, true)
	if intS/seqS > 2.5 {
		t.Errorf("V880z software interleave gain %.1fx implausibly large", intS/seqS)
	}
}

// Table 2's render-time column: the Centrino laptop renders the 0.83M
// hand in ~0.09s and the 2.8M skeleton in ~0.36s at 200x200.
func TestTable2RenderTimes(t *testing.T) {
	hand := Workload{Triangles: 830_000, BatchWeight: WeightHand, Pixels: 200 * 200}
	skel := Workload{Triangles: 2_800_000, BatchWeight: WeightSkeleton, Pixels: 200 * 200}
	th := CentrinoLaptop.OnScreenTime(hand)
	ts := CentrinoLaptop.OnScreenTime(skel)
	if th < 70*time.Millisecond || th > 130*time.Millisecond {
		t.Errorf("hand render %v, paper 0.091s", th)
	}
	if ts < 280*time.Millisecond || ts > 430*time.Millisecond {
		t.Errorf("skeleton render %v, paper 0.355s", ts)
	}
	if ts <= th {
		t.Error("skeleton not slower than hand")
	}
}

func TestBatchDegenerateN(t *testing.T) {
	p := AthlonDesktop
	w := galleon(200 * 200)
	if p.OffScreenBatch(w, 0, false) != p.OffScreenBatch(w, 1, false) {
		t.Error("n=0 not clamped to 1")
	}
	one := p.OffScreenBatch(w, 1, true)
	if one < p.OffScreenTime(w)*9/10 {
		t.Error("single interleaved frame cheaper than a single off-screen frame")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName(SunV880z.Name)
	if err != nil || !p.OffscreenSoftware {
		t.Errorf("ByName: %+v %v", p, err)
	}
	if p, err := ByName("SGI"); err != nil || p.Name != SGIOnyx.Name {
		t.Errorf("ByName by short key: %+v %v", p, err)
	}
	if _, err := ByName("Cray T3E"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestCapacityOrdering(t *testing.T) {
	// The Onyx out-renders everything; the PDA renders essentially nothing.
	if !(SGIOnyx.PolysPerSecond() > XeonDesktop.PolysPerSecond() &&
		XeonDesktop.PolysPerSecond() > CentrinoLaptop.PolysPerSecond() &&
		CentrinoLaptop.PolysPerSecond() > ZaurusPDA.PolysPerSecond()) {
		t.Error("capacity ordering wrong")
	}
}
