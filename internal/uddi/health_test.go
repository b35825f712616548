package uddi

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

const healthTTL = 300 * time.Millisecond

// TestReportHealthValidation: names and known states only, positive TTL.
func TestReportHealthValidation(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	if _, err := r.ReportHealth("", HealthOK, "", healthTTL, now); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := r.ReportHealth("n1", "limping", "", healthTTL, now); err == nil {
		t.Error("unknown state accepted")
	}
	if _, err := r.ReportHealth("n1", HealthOK, "", 0, now); err == nil {
		t.Error("zero ttl accepted")
	}
	if _, err := r.ReportHealth("n1", HealthStorageDegraded, "wal poisoned", healthTTL, now); err != nil {
		t.Errorf("valid report refused: %v", err)
	}
}

// TestHealthRowsLapse: a degraded row that stops being reported lapses
// back to unknown — the registry never brands a node forever.
func TestHealthRowsLapse(t *testing.T) {
	r := NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	if _, err := r.ReportHealth("n1", HealthStorageDegraded, "enospc", healthTTL, clk.Now()); err != nil {
		t.Fatal(err)
	}
	row, ok := r.QueryHealth("n1", clk.Now())
	if !ok || row.State != HealthStorageDegraded || row.Detail != "enospc" {
		t.Fatalf("row = %+v ok=%v", row, ok)
	}
	if got := r.DegradedNodes(clk.Now()); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("degraded = %v, want [n1]", got)
	}
	clk.Advance(healthTTL)
	if _, ok := r.QueryHealth("n1", clk.Now()); ok {
		t.Error("lapsed row still returned")
	}
	if got := r.DegradedNodes(clk.Now()); len(got) != 0 {
		t.Errorf("lapsed row still listed degraded: %v", got)
	}
	// Never-reported nodes are unknown, not degraded.
	if _, ok := r.QueryHealth("ghost", clk.Now()); ok {
		t.Error("unknown node has a health row")
	}
}

// TestHealthRecovery: a node that reports ok again leaves the degraded
// set immediately — recovery is one heartbeat away.
func TestHealthRecovery(t *testing.T) {
	r := NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	for _, n := range []string{"n2", "n1"} {
		if _, err := r.ReportHealth(n, HealthStorageDegraded, "", healthTTL, clk.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.DegradedNodes(clk.Now()); len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("degraded = %v, want sorted [n1 n2]", got)
	}
	if _, err := r.ReportHealth("n1", HealthOK, "", healthTTL, clk.Now()); err != nil {
		t.Fatal(err)
	}
	if got := r.DegradedNodes(clk.Now()); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("after recovery: %v, want [n2]", got)
	}
}

// TestHealthSOAPRoundTrip: the report/query/degraded ops survive the
// SOAP encoding.
func TestHealthSOAPRoundTrip(t *testing.T) {
	_, ts := newTestRegistry(t)
	p := Connect(ts.URL)
	clk := vclock.NewVirtual(time.Unix(0, 0))

	if err := p.ReportHealth("ds-01", HealthStorageDegraded, "wal poisoned: i/o error", healthTTL, clk.Now()); err != nil {
		t.Fatalf("ReportHealth: %v", err)
	}
	if err := p.ReportHealth("ds-01", "limping", "", healthTTL, clk.Now()); err == nil {
		t.Fatal("invalid state accepted over SOAP")
	}
	row, ok, err := p.QueryHealth("ds-01", clk.Now())
	if err != nil || !ok {
		t.Fatalf("QueryHealth: %+v ok=%v err=%v", row, ok, err)
	}
	if row.State != HealthStorageDegraded || row.Detail != "wal poisoned: i/o error" {
		t.Errorf("row lost fields over SOAP: %+v", row)
	}
	if _, ok, err := p.QueryHealth("ghost", clk.Now()); err != nil || ok {
		t.Errorf("unknown node: ok=%v err=%v", ok, err)
	}
	nodes, err := p.DegradedNodes(clk.Now())
	if err != nil || len(nodes) != 1 || nodes[0] != "ds-01" {
		t.Fatalf("DegradedNodes = %v err=%v, want [ds-01]", nodes, err)
	}
	clk.Advance(healthTTL)
	if nodes, err := p.DegradedNodes(clk.Now()); err != nil || len(nodes) != 0 {
		t.Errorf("lapsed: %v err=%v", nodes, err)
	}
}
