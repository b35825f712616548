package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/dataservice/wal"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/transport"
)

const (
	// A block is collabSteps steps of sceneNodes moves and one reshape.
	collabSteps   = 256
	collabStepOps = sceneNodes + 1
	// collabCompact is the journal's compaction interval in ops: every
	// 32 steps, so a block holds exactly eight checkpoint rewrites and
	// the journal never holds more than 32 reshaped meshes.
	collabCompact    = 32 * collabStepOps
	collabEditor     = "editor"
	collabObserver   = "observer"
	collabCheckW     = 200
	collabCheckH     = 200
	collabPollPeriod = 200 * time.Microsecond
)

// collabEdit is the write path: an editing collaborator's updates
// committed by the data service — applied, journalled, and fanned out
// to two subscribed render services and to an observer, a third
// subscriber whose socket the harness reads. One op is one step of the
// editor: every part of the model is moved (eight SetTransformOp) and
// one part is reshaped (a SetPayloadOp carrying its 6 k-triangle mesh),
// and the op ends when the observer has received the step's last
// update, so the loop is closed the way a collaborator sees it.
//
// A step, not a single move, is the op because a move alone is 40 µs of
// which half is the runtime waking the subscribers' threads; on this
// host that cost drifts by a tenth over minutes, unseen by any
// reference kernel, and no metric of a move-only workload repeated
// (README.md, "Noise study"). The reshape makes the op 5 ms of
// marshalling, applying, journalling and sending, which does repeat,
// and the moves ride along as a twelfth of it.
//
// The session's journal is a wal.MemStore: the whole commit path runs
// (op encoding, record framing, checkpoint rewrites on compaction)
// except the device. The benchmark may not write outside its checkout,
// the checkout is on an ext4 disk, and an fsync there is 0.3 ms that
// moves independently of processor speed. A traced run times
// wal.append on a wal.OSStore in the scratch directory, which keeps
// the device's cost on record.
type collabEdit struct {
	rig      *rig
	moves    []scene.SetTransformOp
	reshapes []scene.SetPayloadOp // variant*sceneNodes + node
	store    *wal.MemStore
	scratch  string

	// The observer's reader publishes the newest version it has
	// received in seen and nudges wake; watching closes when it ends.
	seen     atomic.Uint64
	wake     chan struct{}
	watching chan struct{}

	// Traced runs only.
	shadowScene *scene.Scene
	shadowRep   *renderservice.Session
	diskLog     *wal.Log
	diskDir     string
	diskVersion uint64
	memLog      *wal.Log
	link        *echoLink
	version     uint64
}

func newCollabEdit(seed uint64, steps int, scratch string) (*collabEdit, error) {
	if steps <= 0 {
		steps = collabSteps
	}
	r, err := newRig(fanServices, fanWorkers)
	if err != nil {
		return nil, err
	}
	w := &collabEdit{rig: r, scratch: scratch, store: wal.NewMemStore()}
	w.moves, w.reshapes = editScript(r, seed, steps)
	if err := r.sess.StartJournal(w.store, collabCompact); err != nil {
		r.close()
		return nil, err
	}
	if err := w.observe(); err != nil {
		r.close()
		return nil, err
	}
	return w, nil
}

// editScript is one block's edits. Step i moves every node by a small
// seeded rotation and offset, then reshapes node i mod 8 to one of two
// seeded colourings of its mesh. The last write to each node decides
// the scene, so every block ends on the same scene.
func editScript(r *rig, seed uint64, steps int) ([]scene.SetTransformOp, []scene.SetPayloadOp) {
	rng := splitmix(seed)
	moves := make([]scene.SetTransformOp, steps*sceneNodes)
	for i := range moves {
		angle := (rng.float() - 0.5) * 0.2
		offset := mathx.V3((rng.float()-0.5)*0.3, (rng.float()-0.5)*0.3, (rng.float()-0.5)*0.3)
		moves[i] = scene.SetTransformOp{
			ID:        r.nodeIDs[i%sceneNodes],
			Transform: mathx.Translate(offset).Mul(mathx.RotateY(angle)),
		}
	}
	reshapes := make([]scene.SetPayloadOp, 0, 2*sceneNodes)
	r.sess.Scene(func(sc *scene.Scene) {
		for variant := 0; variant < 2; variant++ {
			colour := mathx.V3(rng.float(), rng.float(), rng.float())
			for _, id := range r.nodeIDs {
				mesh := sc.Node(id).Payload.(*scene.MeshPayload).Mesh.Clone()
				mesh.SetUniformColor(colour)
				reshapes = append(reshapes, scene.SetPayloadOp{ID: id, Payload: &scene.MeshPayload{Mesh: mesh}})
			}
		}
	})
	return moves, reshapes
}

// observe subscribes one more socket to the session the way a render
// service does, takes the bootstrap snapshot off it, and starts the
// reader that publishes every update's version. The reader is a
// goroutine of its own because a reshape can exceed the socket's
// buffers: the commit's fan-out write to the observer would then wait
// for a reader that is the committing goroutine itself.
func (w *collabEdit) observe() error {
	raw, err := w.rig.dial(w.rig.dataAddr)
	if err != nil {
		return err
	}
	conn := transport.NewConn(raw)
	err = conn.SendJSON(transport.MsgHello, transport.Hello{Role: "render-service", Name: collabObserver, Session: sessionName})
	if err != nil {
		return err
	}
	t, _, err := conn.Receive()
	if err != nil {
		return err
	}
	if t != transport.MsgSceneSnapshot {
		return fmt.Errorf("observer expected the bootstrap snapshot, got %s", t)
	}
	w.wake = make(chan struct{}, 1)
	w.watching = make(chan struct{})
	go func() {
		defer close(w.watching)
		for {
			t, payload, err := conn.Receive()
			if err != nil {
				return // rig.close closed the socket
			}
			if t != transport.MsgSceneOpVer {
				continue // the camera that follows the snapshot
			}
			version, _, err := transport.UnpackVersioned(payload)
			if err != nil {
				return
			}
			w.seen.Store(version)
			select {
			case w.wake <- struct{}{}:
			default: // a nudge is already waiting
			}
		}
	}()
	return nil
}

// awaitOp waits until the observer has received the update that
// produced version.
func (w *collabEdit) awaitOp(version uint64) error {
	timeout := time.After(opTimeout)
	for w.seen.Load() < version {
		select {
		case <-w.wake:
		case <-w.watching:
			return fmt.Errorf("observer's stream ended before version %d", version)
		case <-timeout:
			return fmt.Errorf("observer never received version %d", version)
		}
	}
	return nil
}

func (w *collabEdit) ops() int { return len(w.moves) / sceneNodes }

func (w *collabEdit) stepOps(i int) ([]scene.SetTransformOp, *scene.SetPayloadOp) {
	return w.moves[i*sceneNodes : (i+1)*sceneNodes], &w.reshapes[i%len(w.reshapes)]
}

func (w *collabEdit) do(i int) opResult {
	moves, reshape := w.stepOps(i)
	t0 := time.Now()
	for k := range moves {
		if err := w.rig.sess.ApplyUpdate(&moves[k], collabEditor); err != nil {
			return opResult{err: err}
		}
	}
	res := opResult{commit: time.Since(t0) / sceneNodes}
	if res.err = w.rig.sess.ApplyUpdate(reshape, collabEditor); res.err != nil {
		return res
	}
	res.err = w.awaitOp(w.rig.sess.Version())
	return res
}

func (w *collabEdit) view(int) (raster.Camera, int, int, bool) {
	return raster.Camera{}, 0, 0, false
}

func (w *collabEdit) allowedDiff() int { return 0 }

func (w *collabEdit) deployment() *rig { return w.rig }

// endBlock waits until both replicas have applied every committed op,
// so a block's elapsed time covers replication, not just commits.
func (w *collabEdit) endBlock() error {
	want := w.rig.sess.Version()
	deadline := time.Now().Add(opTimeout)
	for i := range w.rig.renders {
		rep, err := w.rig.replica(i)
		if err != nil {
			return err
		}
		for rep.Version() != want {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s stuck at version %d, data service at %d", w.rig.names[i], rep.Version(), want)
			}
			time.Sleep(collabPollPeriod)
		}
	}
	return nil
}

// checkBlock renders each replica's scene and the data service's scene
// from the same camera; converged replicas give identical frames.
func (w *collabEdit) checkBlock(ref *renderservice.Service) (uint64, error) {
	want, _, err := ref.RenderSceneOnce(w.rig.sess.Snapshot(), w.rig.base, collabCheckW, collabCheckH)
	if err != nil {
		return 0, err
	}
	for i := range w.rig.renders {
		rep, err := w.rig.replica(i)
		if err != nil {
			return 0, err
		}
		rep.SetCamera(w.rig.base)
		got, err := rep.RenderFrame(collabCheckW, collabCheckH, "")
		if err != nil {
			return 0, err
		}
		if n := diffPixels(want, got.FB); n != 0 {
			return 0, fmt.Errorf("%s's replica renders %d pixels unlike the data service's scene", w.rig.names[i], n)
		}
	}
	return checksum(want), nil
}

// startTrace builds a private scene, replica and journals to replay
// on: one in memory like the session's, one on disk in the scratch
// directory.
func (w *collabEdit) startTrace() error {
	var err error
	w.shadowScene = w.rig.sess.Snapshot()
	w.version = w.shadowScene.Version
	if _, w.shadowRep, err = shadowService("shadow-0", fanWorkers, w.shadowScene, w.rig.base); err != nil {
		return err
	}
	w.diskVersion = w.version
	now := time.Now()
	if w.memLog, err = wal.Create(wal.NewMemStore(), w.shadowScene, w.version, now); err != nil {
		return err
	}
	// Compacting like the session's journal keeps it from growing by a
	// mesh per step for the whole run.
	w.memLog.CompactEvery = collabCompact
	if w.diskDir, err = os.MkdirTemp(w.scratch, "journal-"); err != nil {
		return err
	}
	diskStore := wal.NewOSStore(filepath.Join(w.diskDir, "shadow.wal"))
	if w.diskLog, err = wal.Create(diskStore, w.shadowScene, w.version, now); err != nil {
		return err
	}
	w.link, err = newEchoLink()
	return err
}

// replay walks a step's nine commits again, each as its steps on the
// editor's goroutine: apply, journal append (its op encoding as the
// child), and per subscriber an op encoding and a socket send. Moves
// and the reshape are timed under different names, a move being three
// orders of magnitude smaller. The replicas' decode and apply happen on
// their subscription goroutines beside the commit, so they are timed
// but not accounted; so is a move's append to a journal on disk.
func (w *collabEdit) replay(i int, _ opResult, t *tracer, root int) time.Duration {
	moves, reshape := w.stepOps(i)
	var accounted time.Duration
	bytesMoved := 0
	for k := range moves {
		d, n := w.replayCommit(t, root, &moves[k], moveSpans, k == 0)
		accounted += d
		bytesMoved += n
	}
	d, n := w.replayCommit(t, root, reshape, reshapeSpans, false)
	t.count("transport.bytes_per_op", float64(bytesMoved+n))
	return accounted + d
}

// commitSpans names the spans of one kind of commit.
type commitSpans struct {
	apply, append, write, send, read, replicaApply string
}

var (
	moveSpans    = commitSpans{"apply_op", "append_mem", "op_write", "msg_rtt", "op_read", "apply_op"}
	reshapeSpans = commitSpans{"apply_payload", "append_payload", "payload_write", "payload_rtt", "payload_read", "apply_payload"}
)

// replayCommit replays one ApplyUpdate and returns the time its
// blocking steps account for and the bytes it put on sockets. With
// disk set it also appends the op to the journal on disk, which keeps
// a version count of its own since it sees one op in nine.
func (w *collabEdit) replayCommit(t *tracer, root int, op scene.Op, names commitSpans, disk bool) (time.Duration, int) {
	var accounted time.Duration
	w.version++
	now := time.Now()

	_, d := t.run(root, "scene", names.apply, func() {
		w.shadowScene.ApplyOp(op)
	})
	accounted += d

	id, d := t.run(root, "wal", names.append, func() {
		w.memLog.Append(op, w.version, now, w.shadowScene.Clone)
	})
	accounted += d
	var buf bytes.Buffer
	_, encode := t.run(id, "marshal", names.write, func() {
		marshal.WriteOp(&buf, op)
	})

	payload := transport.PackVersioned(w.version, buf.Bytes())
	subscribers := len(w.rig.renders) + 1
	for s := 0; s < subscribers; s++ {
		// The commit only sends; the reads are the subscribers' own.
		var send time.Duration
		t.run(root, "transport", names.send, func() {
			send, _ = w.link.roundTrip(transport.MsgSceneOpVer, payload)
		})
		accounted += encode + send
	}

	var decoded scene.Op
	t.run(root, "marshal", names.read, func() {
		decoded, _ = marshal.ReadOp(bytes.NewReader(buf.Bytes()))
	})
	if decoded != nil {
		t.run(root, "renderservice", names.replicaApply, func() {
			w.shadowRep.ApplyOp(decoded)
		})
	}

	if disk {
		// Last, because an fsync parks the generator's thread and the
		// calls after it would be timed while the runtime recovers.
		w.diskVersion++
		path := filepath.Join(w.diskDir, "shadow.wal")
		before := fileSize(path)
		t.run(root, "wal", "append", func() {
			w.diskLog.Append(op, w.diskVersion, now, nil)
		})
		t.count("wal.bytes_per_op", float64(fileSize(path)-before))
	}
	return accounted, len(payload) * subscribers
}

// fileSize is the journal segment's length, 0 if it cannot be read.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// close stops the journal, recovers it and checks that the recovered
// scene is byte for byte the data service's.
func (w *collabEdit) close() error {
	w.rig.close()
	if w.watching != nil {
		<-w.watching
	}
	if w.link != nil {
		w.link.close()
	}
	if w.diskLog != nil {
		w.diskLog.Close()
		os.RemoveAll(w.diskDir)
	}
	if err := w.rig.sess.StopJournal(); err != nil {
		return err
	}
	rec, err := wal.Recover(w.store)
	if err != nil {
		return fmt.Errorf("recover journal: %w", err)
	}
	recovered, err := rec.Scene()
	if err != nil {
		return err
	}
	var want, got bytes.Buffer
	if err := marshal.WriteScene(&want, w.rig.sess.Snapshot()); err != nil {
		return err
	}
	if err := marshal.WriteScene(&got, recovered); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("journal recovers to version %d, a different scene from the data service's version %d",
			rec.Version, w.rig.sess.Version())
	}
	return nil
}
