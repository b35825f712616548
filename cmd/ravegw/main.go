// Command ravegw is the session-sharded gateway daemon: the front door
// a thin client asks before it talks to anybody. It scans a UDDI
// registry for live data services, arranges them on a consistent-hash
// ring, and answers MsgRouteQuery with the node that owns the queried
// session — stamping the ownership with an epoch-fenced UDDI lease so
// a rerouted client and a deposed node can never both believe they
// hold the session.
//
// Routing is deliberately off the frame path: clients query once,
// cache the route, and talk to the data service directly until an
// epoch bump tells them the world moved. When the periodic rescan
// notices membership change, the ring shifts only ~1/N of sessions;
// the next query per moved session transfers its lease to the new
// owner at a higher epoch.
//
//	ravegw -registry http://host:8090 -addr :8070
//	ravegw -registry http://host:8090 -rescan 1s -lease-ttl 3s
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// clock is the binary's single time source; lease stamping and the
// membership rescan heartbeat run on vclock.Real per the wallclock
// contract.
var clock vclock.Clock = vclock.Real{}

func main() {
	addr := flag.String("addr", "127.0.0.1:8070", "listen address for route queries")
	registry := flag.String("registry", "", "UDDI registry URL to scan for data services (required)")
	rescan := flag.Duration("rescan", 2*time.Second, "membership rescan interval")
	leaseTTL := flag.Duration("lease-ttl", gateway.DefaultLeaseTTL, "session ownership lease TTL")
	replicas := flag.Int("replicas", gateway.DefaultRingReplicas, "virtual nodes per member on the placement ring")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ravegw:", err)
		os.Exit(1)
	}
	if *registry == "" {
		fail(fmt.Errorf("-registry is required: the gateway routes to whatever the registry advertises"))
	}

	rt := &router{
		proxy: uddi.Connect(*registry),
		ring:  gateway.NewRing(*replicas),
		ttl:   *leaseTTL,
	}
	added, _, _, err := rt.scan()
	if err != nil {
		fail(fmt.Errorf("initial registry scan: %w", err))
	}
	fmt.Printf("ravegw: %d data services discovered at %s\n", len(added), *registry)
	go func() {
		for {
			clock.Sleep(*rescan)
			added, removed, degraded, err := rt.scan()
			if err != nil {
				fmt.Fprintln(os.Stderr, "ravegw: rescan:", err)
				continue
			}
			for _, m := range added {
				fmt.Printf("ravegw: member joined: %s\n", m)
			}
			for _, m := range removed {
				if slices.Contains(degraded, m) {
					fmt.Printf("ravegw: member left: %s (reports %s)\n", m, uddi.HealthStorageDegraded)
					continue
				}
				fmt.Printf("ravegw: member left: %s\n", m)
			}
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("ravegw: answering route queries on %s (rescan every %v)\n", ln.Addr(), *rescan)
	fail(core.Serve(ln, func(c net.Conn) error { return gateway.ServeRouteFunc(c, rt.route) },
		func(err error) { fmt.Fprintln(os.Stderr, "ravegw: connection:", err) }))
}

// router maps sessions to registered data services: a consistent-hash
// ring over the UDDI membership, plus the name→access-point table from
// the same scan so answers carry a dialable address.
type router struct {
	proxy *uddi.Proxy
	ring  *gateway.Ring
	ttl   time.Duration

	mu     sync.Mutex
	access map[string]string
}

// scan reconciles the ring with the registry's current view: every
// binding advertising the data-service port type is a member, keyed by
// service name, unless its node currently reports storage-degraded —
// such a node still serves what it holds but must take no sessions, so
// it leaves the ring (the next query per session it owned transfers the
// lease away) and rejoins once it reports ok or its report lapses.
// Returns the joins and leaves, and the degraded names behind the
// leaves, so the caller can log membership churn without diffing state
// itself.
func (rt *router) scan() (added, removed, degraded []string, err error) {
	entries, err := rt.proxy.DumpEntries()
	if err != nil {
		return nil, nil, nil, err
	}
	degraded, err = rt.proxy.DegradedNodes(clock.Now())
	if err != nil {
		return nil, nil, nil, err
	}
	members := make(map[string]string)
	for _, e := range entries {
		for _, tm := range e.TModels {
			if tm == wsdl.DataServicePortType {
				members[e.Service] = e.AccessPoint
				break
			}
		}
	}
	for _, m := range degraded {
		delete(members, m)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for m := range members {
		if !rt.ring.Has(m) {
			rt.ring.Add(m)
			added = append(added, m)
		}
	}
	for _, m := range rt.ring.Members() {
		if _, ok := members[m]; !ok {
			rt.ring.Remove(m)
			removed = append(removed, m)
		}
	}
	rt.access = members
	return added, removed, degraded, nil
}

// route answers one query: ring placement picks the owner, and the
// lease transfer stamps it — a no-op renewal when the owner already
// holds the lease, an epoch bump when ownership genuinely moved, so
// stale routes are fenced at the data service rather than trusted.
func (rt *router) route(session string) (transport.RouteInfo, error) {
	rt.mu.Lock()
	owner, standby, ok := rt.ring.OwnerAndStandby(session)
	ap := rt.access[owner]
	rt.mu.Unlock()
	if !ok {
		return transport.RouteInfo{}, fmt.Errorf("no data services registered")
	}
	lease, err := rt.proxy.TransferLease(gateway.LeaseServicePrefix+session, owner, rt.ttl, clock.Now())
	if err != nil {
		return transport.RouteInfo{}, fmt.Errorf("lease transfer to %s: %w", owner, err)
	}
	return transport.RouteInfo{
		Session:     session,
		Node:        owner,
		AccessPoint: ap,
		Epoch:       lease.Epoch,
		Standby:     standby,
	}, nil
}
