package core

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/wal"
	"repro/internal/uddi"
)

// corruptJournal leaves at path the journal of a session "skull" whose
// second op record had bits flipped on the way to disk, with intact
// records after it: damage mid-log, not a torn tail.
func corruptJournal(t *testing.T, path string) {
	t.Helper()
	sess, err := dataservice.New(dataservice.Config{Name: "old"}).CreateSession("skull")
	if err != nil {
		t.Fatal(err)
	}
	// StartJournal's Create is store ops 0..3; appends are (4,5), (6,7), ...
	store := wal.NewFaultStore(wal.NewOSStore(path), wal.NewStoreFaults(11).FlipBits(6))
	if err := sess.StartJournal(store, 0); err != nil {
		t.Fatal(err)
	}
	commit(t, sess, 4)
	if err := sess.StopJournal(); err != nil {
		t.Fatal(err)
	}
}

// walCorrupt reads node's wal_corrupt_total.
func walCorrupt(node *DataNode) int64 {
	return node.metrics.Snapshot().CounterValue(node.Name, "wal_corrupt_total", "")
}

// TestDataNodeQuarantinesCorruptJournal: a node whose journal is damaged
// mid-log never replays it. It moves the segment to <path>.corrupt,
// counts it, and rejoins as a standby that bootstraps the session from
// the primary through the replica index, read-only at the primary's
// version. When the primary stops it promotes and journals afresh, so a
// restart on the same journal recovers locally at the version it
// committed.
func TestDataNodeQuarantinesCorruptJournal(t *testing.T) {
	registry := httptest.NewServer(uddi.NewServer(uddi.NewRegistry()))
	defer registry.Close()
	const renew = 40 * time.Millisecond
	path := filepath.Join(t.TempDir(), "skull.wal")
	corruptJournal(t, path)

	// Only a primary that watches a replication factor publishes the
	// index row a standby dials.
	primary := &DataNode{Name: "prim", Session: "skull", Model: "galleon", Triangles: 600,
		Registry: registry.URL, Region: "eu", Lease: true, Replicas: 1, Renew: renew}
	stopPrimary := runNode(t, primary)
	defer stopPrimary()
	onPrimary := nodeSession(t, primary)
	commit(t, onPrimary, 3)

	victim := func() *DataNode {
		return &DataNode{Name: "victim", Session: "skull", Journal: path,
			Registry: registry.URL, Region: "us", Lease: true, Renew: renew}
	}
	node := victim()
	stopNode := runNode(t, node)
	defer stopNode()
	held := nodeSession(t, node)
	waitFor(t, "the quarantined node to bootstrap from the primary", func() bool {
		return held.Version() == onPrimary.Version()
	})
	if !held.IsReadOnly() {
		t.Fatal("the node serves its copy writable while the primary lives")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("the damaged journal was not quarantined: %v", err)
	}
	if n := walCorrupt(node); n != 1 {
		t.Errorf("wal_corrupt_total = %d, want 1", n)
	}

	stopPrimary()
	waitFor(t, "the node to promote", func() bool { return !held.IsReadOnly() })
	commit(t, held, 4)
	waitFor(t, "the promoted session's journal to hold every commit", func() bool {
		return held.JournalVersion() == held.Version()
	})
	want := held.Version()
	stopNode()

	restarted := victim()
	stopRestarted := runNode(t, restarted)
	defer stopRestarted()
	recovered := nodeSession(t, restarted)
	if recovered.IsReadOnly() || recovered.Version() != want {
		t.Errorf("restart: read-only %t at version %d, want a writable session recovered at %d",
			recovered.IsReadOnly(), recovered.Version(), want)
	}
	if n := walCorrupt(restarted); n != 0 {
		t.Errorf("the restart counted %d corrupt journals, want 0", n)
	}
}

// TestDataNodeRefusesCorruptJournalStandalone: with no registry there is
// no replica to bootstrap from, so a node whose journal is damaged
// mid-log refuses to start. The error carries the quarantine
// instructions, no session is served, and the journal stays where it is.
func TestDataNodeRefusesCorruptJournalStandalone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "skull.wal")
	corruptJournal(t, path)
	node := &DataNode{Name: "victim", Session: "skull", Model: "galleon", Triangles: 600,
		Journal: path, Renew: 40 * time.Millisecond}
	node.Info = log.New(testLog{t}, "victim: ", 0)
	node.Warn = log.New(testLog{t}, "victim: WARN ", 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- node.Run(ctx, ln) }()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the node came up on a journal damaged mid-log")
	}
	if !errors.Is(err, wal.ErrLogCorrupt) {
		t.Fatalf("Run = %v, want ErrLogCorrupt", err)
	}
	for _, hint := range []string{"damaged mid-log", "-registry and -region to quarantine"} {
		if !strings.Contains(err.Error(), hint) {
			t.Errorf("the refusal does not say %q: %v", hint, err)
		}
	}
	if _, ok := node.Service().Session("skull"); ok {
		t.Error("the refusing node holds a session")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("the journal moved: %v", err)
	}
	if n := walCorrupt(node); n != 1 {
		t.Errorf("wal_corrupt_total = %d, want 1", n)
	}
}
