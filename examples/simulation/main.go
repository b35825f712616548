// Simulation: the §5.2 bridged-simulator scenario. A mass-spring
// "molecule" runs in an external simulator; RAVE displays it and carries
// the collaboration. A user exerts a force on one atom; the simulator
// integrates the dynamics, the data service fans the motion out, and a
// render service serves frames of the wobbling molecule to a thin client.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/feed"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

func main() {
	ds := dataservice.New(dataservice.Config{Name: "sim-data"})
	sess, err := ds.CreateSession("molecule")
	if err != nil {
		log.Fatal(err)
	}

	// The external simulator attaches its atoms to the session.
	mol := feed.NewWaterlikeMolecule()
	bridge, err := feed.NewBridge(sess, mol, "simulator")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("molecule attached: %d atoms, session version %d\n",
		mol.AtomCount(), sess.Version())

	// Frame the shared camera on the molecule.
	cam := raster.DefaultCamera()
	cam.Eye = mathx.V3(0, 0.4, 5)
	cam.Target = mathx.V3(0, 0.3, 0)
	if err := sess.SetCamera(renderservice.StateFromCamera(cam), ""); err != nil {
		log.Fatal(err)
	}

	// A render service subscribes over a socket.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go core.Serve(ln, func(c net.Conn) error { return ds.ServeConn(c) }, nil)
	rs := renderservice.New(renderservice.Config{
		Name: "sim-render", Device: device.AthlonDesktop, Workers: 4,
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	ready := make(chan *renderservice.Session, 1)
	go rs.SubscribeToData(conn, "molecule", func(sess *renderservice.Session) { ready <- sess })
	replica := <-ready

	// A thin client connects to the render service.
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer rln.Close()
	go core.Serve(rln, func(c net.Conn) error { return rs.ServeClient(c, 94e6) }, nil)
	tconn, err := net.Dial("tcp", rln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer tconn.Close()
	viewer, err := client.DialThin(tconn, "viewer", "molecule")
	if err != nil {
		log.Fatal(err)
	}
	defer viewer.Close()

	writeFrame := func(name string) {
		fb, err := viewer.RequestFrame(320, 240, "adaptive")
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := client.WritePNG(f, fb); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (scene version %d)\n", name, sess.Version())
	}
	writeFrame("simulation-before.png")

	// The user picks atom 1 and yanks it upward (§5.2's exerted force);
	// the simulator integrates while the session streams updates.
	if err := mol.ApplyForceToNode(mol.AtomNode(1), mathx.V3(0, 60, 0)); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := bridge.Step(20 * time.Millisecond); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("simulator stepped %d times; atom 1 moved to %v\n",
		bridge.Steps(), mol.AtomPosition(1))

	// Let the replica catch up, then capture the perturbed state.
	target := sess.Version()
	deadline := time.Now().Add(5 * time.Second)
	for replica.Version() < target {
		if time.Now().After(deadline) {
			log.Fatalf("replica stuck at v%d, want v%d", replica.Version(), target)
		}
		time.Sleep(2 * time.Millisecond)
	}
	writeFrame("simulation-after.png")

	var atomY float64
	sess.Scene(func(sc *scene.Scene) {
		w, _ := sc.WorldTransform(mol.AtomNode(1))
		atomY = w.TransformPoint(mathx.Vec3{}).Y
	})
	fmt.Printf("atom 1 rest height 0.5 -> %.2f after the user's force\n", atomY)
}
