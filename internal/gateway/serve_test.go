package gateway

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/transport"
)

// TestRouteExchange: a route query is answered with the owner or refused
// with the resolver's reason, and a refusal leaves the connection serving.
func TestRouteExchange(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	served := make(chan error, 1)
	go func() {
		served <- ServeRouteFunc(far, func(session string) (transport.RouteInfo, error) {
			if session != "skull" {
				return transport.RouteInfo{}, fmt.Errorf("no data services registered")
			}
			return transport.RouteInfo{Session: session, Node: "dsA", Epoch: 3}, nil
		})
	}()
	conn := transport.NewConn(near)
	var refusal *transport.Refusal
	if _, err := QueryRoute(conn, "ghost"); !errors.As(err, &refusal) || refusal.Message != "no data services registered" {
		t.Fatalf("unknown session: %v", err)
	}
	info, err := QueryRoute(conn, "skull")
	if err != nil || info.Node != "dsA" || info.Epoch != 3 {
		t.Fatalf("route = %+v, %v", info, err)
	}
	if err := conn.Send(transport.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
}
