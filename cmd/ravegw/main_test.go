package main

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

// TestScanDropsStorageDegradedNodes drives the router against a real
// SOAP registry: a data service that reports storage-degraded leaves the
// ring at the next scan — no session routes to it, and the sessions it
// owned move at a higher epoch — and rejoins once it reports ok.
func TestScanDropsStorageDegradedNodes(t *testing.T) {
	ts := httptest.NewServer(uddi.NewServer(uddi.NewRegistry()))
	defer ts.Close()
	node := uddi.Connect(ts.URL)
	names := []string{"ds-01", "ds-02", "ds-03"}
	for _, name := range names {
		if err := core.Register(ts.URL, name, "tcp://"+name+":7000", wsdl.DataServicePortType); err != nil {
			t.Fatal(err)
		}
	}
	rt := &router{proxy: uddi.Connect(ts.URL), ring: gateway.NewRing(gateway.DefaultRingReplicas), ttl: time.Minute}

	// routes asks for the same 64 sessions every time.
	routes := func() map[string]transport.RouteInfo {
		t.Helper()
		out := map[string]transport.RouteInfo{}
		for i := 0; i < 64; i++ {
			info, err := rt.route(fmt.Sprintf("s%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			if info.AccessPoint != "tcp://"+info.Node+":7000" {
				t.Fatalf("route %+v: access point does not belong to the node", info)
			}
			out[info.Session] = info
		}
		return out
	}
	routedTo := func(routes map[string]transport.RouteInfo, node string) int {
		n := 0
		for _, info := range routes {
			if info.Node == node {
				n++
			}
		}
		return n
	}

	added, _, degraded, err := rt.scan()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Sort(added); !slices.Equal(added, names) || len(degraded) != 0 {
		t.Fatalf("first scan: added %v degraded %v, want all of %v and none", added, degraded, names)
	}
	healthy := routes()
	owned := routedTo(healthy, "ds-02")
	if owned == 0 {
		t.Fatal("ds-02 owns none of 64 sessions on a 3-node ring; the test has nothing to move")
	}

	if err := node.ReportHealth("ds-02", uddi.HealthStorageDegraded, "wal poisoned", time.Minute, clock.Now()); err != nil {
		t.Fatal(err)
	}
	added, removed, degraded, err := rt.scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 0 || !slices.Equal(removed, []string{"ds-02"}) || !slices.Equal(degraded, []string{"ds-02"}) {
		t.Fatalf("scan after the report: added %v removed %v degraded %v, want ds-02 removed as degraded", added, removed, degraded)
	}
	sick := routes()
	if n := routedTo(sick, "ds-02"); n != 0 {
		t.Fatalf("%d sessions still routed to storage-degraded ds-02", n)
	}
	moved := 0
	for session, info := range sick {
		if info.Node == healthy[session].Node {
			continue
		}
		moved++
		if info.Epoch <= healthy[session].Epoch {
			t.Errorf("%s moved %s → %s at epoch %d, want a bump past %d", session, healthy[session].Node, info.Node, info.Epoch, healthy[session].Epoch)
		}
	}
	if moved != owned {
		t.Errorf("%d sessions moved, want exactly the %d ds-02 owned", moved, owned)
	}
	// A degraded node that is already out is not reported as leaving again.
	if _, removed, _, err := rt.scan(); err != nil || len(removed) != 0 {
		t.Fatalf("rescan while degraded: removed %v err %v", removed, err)
	}

	if err := node.ReportHealth("ds-02", uddi.HealthOK, "", time.Minute, clock.Now()); err != nil {
		t.Fatal(err)
	}
	added, removed, degraded, err = rt.scan()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(added, []string{"ds-02"}) || len(removed) != 0 || len(degraded) != 0 {
		t.Fatalf("scan after recovery: added %v removed %v degraded %v, want ds-02 back", added, removed, degraded)
	}
	if n := routedTo(routes(), "ds-02"); n != owned {
		t.Errorf("recovered ds-02 routes %d sessions, want its %d back", n, owned)
	}
}
