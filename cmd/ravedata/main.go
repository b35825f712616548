// Command ravedata runs a RAVE data service: it imports a model into a
// session, listens for direct-socket subscriptions from render services
// and clients, optionally records the audit trail and a durable
// write-ahead journal, and registers its access point with a UDDI
// registry. The life-cycle is core.DataNode; this file is its flags.
//
// High availability: with -journal the session survives a crash —
// restarting with the same -journal replays the log to the exact op
// version that was committed before the crash. With -lease the service
// holds a UDDI lease it renews on a heartbeat; -replicas N additionally
// publishes the primary in the registry's replica-location index and
// warns whenever fewer than N followers are reporting. With -standby
// the service instead runs as a replica: it discovers the session's
// current primary through the replica index (nearest-first from its
// -region), follows the op stream, registers its own region-tagged
// index row, and races succession with a catch-up handicap — the
// most-caught-up replica claims the lease first when the primary's
// lease lapses.
//
// Storage faults: a journal that is damaged mid-log (not merely torn at
// the tail) is never replayed — serving the stale prefix would silently
// lose acked ops. With -registry and -region the corrupt segment is
// quarantined to <journal>.corrupt and the service rejoins as a standby,
// bootstrapping the session back from a live replica; without a registry
// it refuses to start. A primary whose disk goes sick mid-run keeps
// serving but advertises storage-degraded through the registry's node
// health table on its heartbeat, and a standby whose own disk fails a
// write probe sits out the succession race rather than claim a
// primaryship it could never journal.
//
//	ravedata -session skull -model skeletal-hand -addr :9000 \
//	         -registry http://host:8090 -lease -replicas 2 -region eu \
//	         -record skull.rava -journal skull.wal
//	ravedata -session skull -addr :9001 -registry http://host:8090 \
//	         -standby -region us -journal standby.wal
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/core"
)

func main() {
	node := &core.DataNode{
		Info: log.New(os.Stdout, "ravedata: ", 0),
		Warn: log.New(os.Stderr, "ravedata: ", 0),
	}
	flag.StringVar(&node.Name, "name", "rave-data", "service name")
	addr := flag.String("addr", "127.0.0.1:9000", "listen address for direct sockets")
	flag.StringVar(&node.Session, "session", "default", "session name to host")
	flag.StringVar(&node.Model, "model", "galleon",
		"model to import: galleon, elle, skeletal-hand, skeleton, or a .obj path")
	flag.IntVar(&node.Triangles, "triangles", 0, "triangle budget for generated models (0 = paper size)")
	flag.StringVar(&node.Registry, "registry", "", "UDDI registry URL to register with (optional)")
	flag.StringVar(&node.Region, "region", "", `locality of this service ("region" or "region/zone"); required for -standby and -replicas`)
	flag.StringVar(&node.Record, "record", "", "record the session audit trail to this file")
	flag.StringVar(&node.Journal, "journal", "", "durable session journal (WAL) path; recovers the session if the file exists")
	flag.IntVar(&node.CompactEvery, "compact-every", 256, "journal checkpoint compaction threshold in ops")
	flag.BoolVar(&node.Lease, "lease", false, "hold a UDDI lease for the session (requires -registry)")
	flag.DurationVar(&node.Renew, "lease-renew", 2*time.Second, "lease renewal heartbeat interval")
	flag.IntVar(&node.Replicas, "replicas", 0, "replication factor: warn while fewer than N followers report in the replica index (requires -lease)")
	flag.BoolVar(&node.Standby, "standby", false, "run as a replica: discover the primary via the replica index, follow its op stream, race succession most-caught-up-first (requires -registry and -region)")
	flag.DurationVar(&node.Telemetry, "telemetry", 0,
		"log a telemetry snapshot at this interval (0 = off); on-demand dumps are always served over the control socket")
	flag.Parse()

	fail := func(err error) {
		node.Warn.Print(strings.ReplaceAll(err.Error(), "\n", "\nravedata: "))
		os.Exit(1)
	}
	if err := node.Validate(); err != nil {
		flag.Usage()
		fail(err)
	}
	if node.CompactEvery < 1 {
		fail(fmt.Errorf("-compact-every %d: compaction threshold must be at least 1", node.CompactEvery))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fail(node.Run(context.Background(), ln))
}
