package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestReplicationFlagValidation: contradictory or underspecified
// replication flags are rejected with an explanatory error instead of
// being papered over with silent defaults.
func TestReplicationFlagValidation(t *testing.T) {
	valid := func() *core.DataNode {
		return &core.DataNode{
			Registry: "http://host:8090", Region: "eu",
			Replicas: 2, Lease: true, Renew: 2 * time.Second,
		}
	}
	cases := []struct {
		name string
		mut  func(*core.DataNode)
		want string // substring of the error; empty means accepted
	}{
		{"primary with factor", func(rf *core.DataNode) {}, ""},
		{"standby", func(rf *core.DataNode) {
			rf.Replicas, rf.Lease, rf.Standby = 0, false, true
		}, ""},
		{"standalone", func(rf *core.DataNode) {
			*rf = core.DataNode{Renew: time.Second}
		}, ""},
		{"negative factor", func(rf *core.DataNode) {
			rf.Replicas = -1
		}, "cannot be negative"},
		{"zero heartbeat", func(rf *core.DataNode) {
			rf.Renew = 0
		}, "must be positive"},
		{"standby with factor", func(rf *core.DataNode) {
			rf.Standby = true
		}, "mutually exclusive"},
		{"factor without registry", func(rf *core.DataNode) {
			rf.Registry = ""
		}, "requires -registry"},
		{"factor without lease", func(rf *core.DataNode) {
			rf.Lease = false
		}, "requires -lease"},
		{"standby without registry", func(rf *core.DataNode) {
			*rf = core.DataNode{Standby: true, Region: "us", Renew: time.Second}
		}, "requires -registry"},
		{"factor without region", func(rf *core.DataNode) {
			rf.Region = ""
		}, "-region is required"},
		{"standby without region", func(rf *core.DataNode) {
			rf.Replicas, rf.Lease, rf.Standby, rf.Region = 0, false, true, ""
		}, "-region is required"},
		{"lease without registry", func(rf *core.DataNode) {
			rf.Replicas, rf.Registry = 0, ""
		}, "-lease requires -registry"},
		{"malformed region", func(rf *core.DataNode) {
			rf.Region = "eu, us"
		}, "single region"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rf := valid()
			tc.mut(rf)
			err := rf.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want accepted", rf, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%+v) = %v, want error containing %q", rf, err, tc.want)
			}
		})
	}
}
