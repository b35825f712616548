// Collaboration: the Figure 3 scenario, live. Two users — "immersadesk"
// on a big display and "desktop" across the network — join the same
// session as active render clients. Each gets an avatar; when desktop
// orbits their camera and nudges the model, the data service fans the
// updates out, and immersadesk's next locally-rendered frame shows both
// the moved model and desktop's avatar cone tracking their viewpoint.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// user bundles one collaborator's client and camera.
type user struct {
	name   string
	active *client.Active
	cam    raster.Camera
}

func main() {
	ds := dataservice.New(dataservice.Config{Name: "collab-data"})
	mesh := genmodel.SkeletalHand(60_000)
	sess, err := ds.CreateSessionFromMesh("hand", "hand", mesh)
	if err != nil {
		log.Fatal(err)
	}
	baseCam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.2, 0.3, 1))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go core.Serve(ln, func(c net.Conn) error { return ds.ServeConn(c) }, nil)

	users := []*user{
		{name: "immersadesk", active: client.NewActive("immersadesk", device.SGIOnyx, 4), cam: baseCam},
		{name: "desktop", active: client.NewActive("desktop", device.AthlonDesktop, 4),
			cam: baseCam.Orbit(0.55, 0.3).Dolly(0.5)},
	}
	for _, u := range users {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		ready := make(chan struct{})
		go u.active.Subscribe(conn, "hand", func() { close(ready) })
		<-ready
		// Announce the user with an avatar, via the data service.
		var op scene.Op
		sess.Scene(func(sc *scene.Scene) {
			op, err = collab.JoinSession(sc, u.name, u.cam)
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.ApplyUpdate(op, ""); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s joined (avatar color %v)\n", u.name, collab.ColorForUser(u.name))
	}

	// Desktop interacts: orbits their view (avatar follows) and rotates
	// the model. The GUI would build these ops after interrogating the
	// node's supported interactions.
	desktop := users[1]
	desktop.cam = desktop.cam.Orbit(0.3, 0.1)
	var moveOp scene.Op
	sess.Scene(func(sc *scene.Scene) {
		moveOp, err = collab.MoveAvatar(sc, "desktop", desktop.cam)
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.ApplyUpdate(moveOp, ""); err != nil {
		log.Fatal(err)
	}

	var handID scene.NodeID
	var rotOp scene.Op
	sess.Scene(func(sc *scene.Scene) {
		for _, id := range sc.PayloadIDs() {
			if n := sc.Node(id); n != nil && n.Kind() == scene.KindMesh {
				handID = id
			}
		}
		supported := scene.SupportedInteractions(sc.Node(handID))
		fmt.Printf("GUI interrogation of node %d: %v\n", handID, supported)
		rotOp, err = scene.InteractionOp(sc, handID, scene.InteractRotate, mathx.RotateY(0.4), "")
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.ApplyUpdate(rotOp, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Println("desktop rotated the hand; updates fanned out to all replicas")

	// Wait for replicas to catch up, then render each user's private view
	// (each omits their own avatar but sees the other's).
	target := sess.Version()
	for _, u := range users {
		for u.active.Session().Version() < target {
			time.Sleep(2 * time.Millisecond)
		}
		u.active.Session().SetCamera(u.cam)
		name := "collaboration-" + u.name + ".png"
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := u.active.RenderPNG(f, 400, 300); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s (scene version %d)\n", name, u.active.Session().Version())
	}

	// Desktop leaves; their avatar disappears for everyone.
	var leaveOp scene.Op
	sess.Scene(func(sc *scene.Scene) {
		leaveOp, err = collab.LeaveSession(sc, "desktop")
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.ApplyUpdate(leaveOp, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Println("desktop left the session")
}
