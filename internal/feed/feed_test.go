package feed

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/mathx"
	"repro/internal/scene"
	"repro/internal/transport"
)

func newSession(t *testing.T) *dataservice.Session {
	t.Helper()
	svc := dataservice.New(dataservice.Config{Name: "feed-data"})
	sess, err := svc.CreateSession("sim")
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestBridgeAttachInstallsAtoms(t *testing.T) {
	sess := newSession(t)
	mol := NewWaterlikeMolecule()
	b, err := NewBridge(sess, mol, "simulator")
	if err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	// Group + 3 atoms.
	if got := len(snap.PayloadIDs()); got != 3 {
		t.Errorf("atom nodes: %d", got)
	}
	for i := 0; i < mol.AtomCount(); i++ {
		id := mol.AtomNode(i)
		if id == 0 || snap.Node(id) == nil {
			t.Fatalf("atom %d node missing", i)
		}
	}
	if b.Steps() != 0 {
		t.Errorf("steps before stepping: %d", b.Steps())
	}
	// Double attach refused.
	if _, err := NewBridge(sess, mol, "again"); err == nil {
		t.Error("re-attach accepted")
	}
}

func TestForcePropagatesToScene(t *testing.T) {
	sess := newSession(t)
	mol := NewWaterlikeMolecule()
	bridge, err := NewBridge(sess, mol, "simulator")
	if err != nil {
		t.Fatal(err)
	}
	watcher := &countingSub{}
	if _, err := sess.Subscribe("watcher", watcher); err != nil {
		t.Fatal(err)
	}

	// The user "exerts a force on the molecule" (§5.2).
	if err := mol.ApplyForce(1, mathx.V3(0, 40, 0)); err != nil {
		t.Fatal(err)
	}
	before := mol.AtomPosition(1)
	if err := bridge.Step(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after := mol.AtomPosition(1)
	if after.Y <= before.Y {
		t.Errorf("force had no effect: %v -> %v", before, after)
	}
	// Scene node follows the simulator.
	var nodePos mathx.Vec3
	sess.Scene(func(sc *scene.Scene) {
		w, _ := sc.WorldTransform(mol.AtomNode(1))
		nodePos = w.TransformPoint(mathx.Vec3{})
	})
	if nodePos.Sub(after).Len() > 1e-9 {
		t.Errorf("scene node at %v, simulator at %v", nodePos, after)
	}
	// Collaborators saw the update.
	if watcher.ops == 0 {
		t.Error("watcher saw no simulation updates")
	}
}

func TestMoleculeSettlesAfterPerturbation(t *testing.T) {
	sess := newSession(t)
	mol := NewWaterlikeMolecule()
	bridge, err := NewBridge(sess, mol, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := mol.ApplyForce(2, mathx.V3(25, -10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := bridge.Step(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	kicked := mol.Energy()
	if kicked <= 0 {
		t.Fatal("perturbation added no energy")
	}
	for i := 0; i < 600; i++ {
		if err := bridge.Step(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if settled := mol.Energy(); settled > kicked/20 {
		t.Errorf("molecule did not settle: %v -> %v", kicked, settled)
	}
	// Positions finite.
	for i := 0; i < mol.AtomCount(); i++ {
		p := mol.AtomPosition(i)
		if math.IsNaN(p.X+p.Y+p.Z) || math.IsInf(p.X+p.Y+p.Z, 0) {
			t.Fatalf("atom %d at %v", i, p)
		}
	}
}

func TestApplyForceByNode(t *testing.T) {
	sess := newSession(t)
	mol := NewWaterlikeMolecule()
	if _, err := NewBridge(sess, mol, "sim"); err != nil {
		t.Fatal(err)
	}
	if err := mol.ApplyForceToNode(mol.AtomNode(0), mathx.V3(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := mol.ApplyForceToNode(9999, mathx.V3(1, 0, 0)); err == nil {
		t.Error("unknown node accepted")
	}
	if err := mol.ApplyForce(-1, mathx.Vec3{}); err == nil {
		t.Error("negative atom accepted")
	}
}

func TestBridgeRunLoop(t *testing.T) {
	sess := newSession(t)
	mol := NewWaterlikeMolecule()
	bridge, err := NewBridge(sess, mol, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := mol.ApplyForce(0, mathx.V3(0, 30, 0)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		bridge.Run(2*time.Millisecond, stop)
		close(done)
	}()
	deadline := time.After(3 * time.Second)
	for bridge.Steps() < 5 {
		select {
		case <-deadline:
			t.Fatal("run loop made no progress")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
	if bridge.Err() != nil {
		t.Errorf("run loop error: %v", bridge.Err())
	}
}

func TestStepValidation(t *testing.T) {
	mol := NewWaterlikeMolecule()
	// Not attached.
	if _, err := mol.Step(10 * time.Millisecond); err == nil {
		t.Error("step before attach accepted")
	}
	sess := newSession(t)
	bridge, err := NewBridge(sess, mol, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := bridge.Step(0); err == nil {
		t.Error("zero step accepted")
	}
	if err := bridge.Step(10 * time.Second); err == nil {
		t.Error("huge step accepted")
	}
	if bridge.Err() == nil {
		t.Error("error not recorded")
	}
	// Constructor validation.
	if _, err := NewBridge(nil, mol, "x"); err == nil {
		t.Error("nil session accepted")
	}
	if _, err := NewBridge(sess, nil, "x"); err == nil {
		t.Error("nil source accepted")
	}
}

// countingSub counts delivered ops.
type countingSub struct{ ops, cams int }

func (c *countingSub) SendUpdate(dataservice.Update) error { c.ops++; return nil }
func (c *countingSub) SendCamera(transport.CameraState) error {
	c.cams++
	return nil
}
