package dataservice

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

// TestAdoptedPayloadsRenderWhileCommitting runs the hand-over contract
// under load (and -race): the data service commits SetPayloadOps whose
// payloads it, an in-process Mirror's backup and a socket replica each
// adopt, while the replica renders frames and the payloads the primary
// and the backup share are drawn from both. Nothing may write a payload
// a scene holds, so the race detector has nothing to find, and every
// copy converges on the last mesh.
func TestAdoptedPayloadsRenderWhileCommitting(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSessionFromMesh("s", "m", genmodel.Sphere(mathx.Vec3{}, 1, 12, 8))
	if err != nil {
		t.Fatal(err)
	}
	var id scene.NodeID
	sess.Scene(func(sc *scene.Scene) { id = sc.PayloadIDs()[0] })
	mirror, _, err := MirrorSessionSince(sess, New(Config{Name: "backup"}))
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Detach()

	dsEnd, rsEnd := net.Pipe()
	served := make(chan struct{})
	go func() { svc.ServeConn(dsEnd); close(served) }()
	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.CentrinoLaptop, Workers: 2})
	ready := make(chan *renderservice.Session, 1)
	done := make(chan error, 1)
	go func() { done <- rs.SubscribeToData(rsEnd, "s", func(s *renderservice.Session) { ready <- s }) }()
	var replica *renderservice.Session
	select {
	case replica = <-ready:
	case err := <-done:
		t.Fatalf("subscription ended before its bootstrap: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("replica never bootstrapped")
	}
	defer func() {
		rsEnd.Close()
		dsEnd.Close()
		<-done
		<-served
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	loop := func(draw func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := draw(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// The replica's viewer draws the payloads the replica decoded.
	loop(func() error { _, err := replica.RenderFrame(48, 48, ""); return err })
	// The primary and the backup share every payload the fan-out handed
	// the mirror; each is drawn under its own session's lock, so a write
	// to a held payload from either draw would race the other.
	cam := raster.DefaultCamera().FitToBounds(mathx.AABB{Min: mathx.V3(-2, -2, -2), Max: mathx.V3(2, 2, 2)}, mathx.V3(0.3, 0.2, 1))
	for _, held := range []*Session{sess, mirror.Backup()} {
		loop(func() (err error) {
			held.Scene(func(sc *scene.Scene) { _, _, err = rs.RenderSceneOnce(sc, cam, 48, 48) })
			return err
		})
	}

	const commits = 24
	for i := 0; i < commits; i++ {
		mesh := genmodel.Sphere(mathx.Vec3{}, 1+0.02*float64(i), 12+i%5, 8+i%3)
		mesh.SetUniformColor(mathx.V3(float64(i%4)/4, 0.5, 0.5))
		if err := sess.ApplyUpdate(&scene.SetPayloadOp{ID: id, Payload: &scene.MeshPayload{Mesh: mesh}}, ""); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for replica.Version() != sess.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at version %d, data service at %d", replica.Version(), sess.Version())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var primary, backup scene.Payload
	sess.Scene(func(sc *scene.Scene) { primary = sc.Node(id).Payload })
	mirror.Backup().Scene(func(sc *scene.Scene) { backup = sc.Node(id).Payload })
	if backup != primary {
		t.Error("the mirror's backup holds a payload other than the one the primary adopted")
	}
	if got, want := replica.SceneCost().Triangles, primary.Cost().Triangles; got != want {
		t.Errorf("replica draws %d triangles, the data service's last mesh has %d", got, want)
	}
}
