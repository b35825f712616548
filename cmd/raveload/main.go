// Command raveload is the fleet-scale load harness: it stands up a
// gateway-fronted data-service fleet on the virtual clock, drives an
// open-loop population of concurrent sessions through it (optionally
// killing a node, poisoning a node's disk, or cutting a whole region
// mid-run), and writes the versioned BENCH_scale.json /
// BENCH_partition.json / BENCH_storage.json throughput, latency, and
// locality artifact.
//
// Usage:
//
//	raveload                                # default 100-session scenario
//	raveload -sessions 1200 -nodes 8 \
//	         -kill-at 4s -out BENCH_scale.json
//	raveload -regions eu,us -replicas 2 \
//	         -partition-at 3s -heal-at 6s \
//	         -out BENCH_partition.json      # region-partition scenario
//	raveload -replicas 2 -sick-disk-at 2s \
//	         -out BENCH_storage.json        # sick-disk evacuation scenario
//	raveload -check                         # fail on any acceptance violation
//
// Everything runs in virtual time, moved only when every requester is
// blocked, so one seed writes the same artifact on every run at any
// GOMAXPROCS. A 100-session run takes seconds of wall time; the cost
// grows as goroutines × clock steps, so a thousand sessions take minutes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/telemetry"
)

// splitRegions parses the -regions list, dropping empty segments so
// "eu,us," does not smuggle in a nameless region.
func splitRegions(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, r)
		}
	}
	return out
}

func main() {
	nodes := flag.Int("nodes", loadgen.DefaultNodes, "data-service fleet size")
	sessions := flag.Int("sessions", loadgen.DefaultSessions, "concurrent session population")
	tenants := flag.Int("tenants", loadgen.DefaultTenants, "fair-share tenants the sessions are spread over")
	interval := flag.Duration("interval", loadgen.DefaultInterval, "per-session request period (virtual time)")
	duration := flag.Duration("duration", loadgen.DefaultDuration, "run length (virtual time)")
	frameEvery := flag.Int("frame-every", loadgen.DefaultFrameEvery, "every k-th request is an interactive frame")
	seed := flag.Int64("seed", 42, "start-phase jitter seed")
	depth := flag.Int("depth", loadgen.DefaultQueueDepth, "gateway admission queue depth")
	slots := flag.Int("slots", loadgen.DefaultRenderSlots, "render slots per node")
	killAt := flag.Duration("kill-at", 0, "kill the most-loaded node at this virtual offset (0 = no fault)")
	sickDiskAt := flag.Duration("sick-disk-at", 0, "poison the most-loaded node's disk at this virtual offset (0 = no fault; implies journal-backed nodes)")
	regions := flag.String("regions", "", "comma-separated region list; nodes spread round-robin, gateway sits in the first")
	replicas := flag.Int("replicas", 0, "per-session replication factor (0 = single standby)")
	partitionAt := flag.Duration("partition-at", 0, "cut the last region off at this virtual offset (0 = no partition)")
	healAt := flag.Duration("heal-at", 0, "heal the partition at this virtual offset (0 = stay cut to the end)")
	out := flag.String("out", "", "write the versioned BENCH_scale.json / BENCH_partition.json artifact here")
	check := flag.Bool("check", false, "exit non-zero if acceptance invariants fail")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "raveload:", err)
		os.Exit(1)
	}

	sc := loadgen.Scenario{
		Nodes:       *nodes,
		Sessions:    *sessions,
		Tenants:     *tenants,
		Interval:    *interval,
		Duration:    *duration,
		FrameEvery:  *frameEvery,
		Seed:        *seed,
		QueueDepth:  *depth,
		RenderSlots: *slots,
		KillNodeAt:  *killAt,
		SickDiskAt:  *sickDiskAt,
		Regions:     splitRegions(*regions),
		Replicas:    *replicas,
		PartitionAt: *partitionAt,
		HealAt:      *healAt,
	}
	if err := sc.Validate(); err != nil {
		flag.Usage()
		fail(err)
	}
	fleet, err := loadgen.BuildFleet(sc)
	if err != nil {
		fail(err)
	}
	rep := loadgen.NewReporter()
	fleet.Run(context.Background(), rep)
	art := fleet.Artifact(rep)
	res := art.Results

	fmt.Printf("raveload: %d sessions / %d tenants on %d nodes, %v @ %v interval (virtual)\n",
		sc.Sessions, sc.Tenants, sc.Nodes, *duration, *interval)
	if len(sc.Regions) > 0 {
		fmt.Printf("regions: %v, replication factor %d\n", sc.Regions, sc.Replicas)
	}
	if art.Kill != nil {
		fmt.Printf("fault: killed %s at +%v; %d sessions promoted to standbys, %d rebalanced, %d lost\n",
			art.Kill.Node, time.Duration(art.Kill.AtNs), res.Promotions, res.SessionsRebalanced, res.SessionsLost)
	}
	if sd := art.SickDisk; sd != nil {
		fmt.Printf("fault: sick disk on %s at +%v; %d sessions evacuated, %d still on the sick node, replication deficit %d\n",
			sd.Node, time.Duration(sd.AtNs), res.SessionsEvacuated, res.SickNodeSessions, res.ReplicationDeficit)
	}
	if p := art.Partition; p != nil {
		healed := "never healed"
		if p.HealedAtNs > 0 {
			healed = fmt.Sprintf("healed at +%v", time.Duration(p.HealedAtNs))
		}
		fmt.Printf("fault: partitioned region %s at +%v (%s); %d promotions, %d cross / %d victim bootstrap bytes during the cut\n",
			p.Region, time.Duration(p.AtNs), healed, res.Promotions, p.CrossBootstrapBytes, p.VictimBootstrapBytes)
	}
	fmt.Printf("issued %d: ok %d, declined %d, errors %d (%.0f ok req/s virtual)\n",
		res.Issued, res.OK, res.Issued-res.OK-res.Errors, res.Errors, res.ThroughputRPS)
	if len(res.Declined) > 0 {
		reasons := make([]string, 0, len(res.Declined))
		for r := range res.Declined {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Printf("  declined %-12s %d\n", r, res.Declined[r])
		}
	}
	printClass := func(name string, s telemetry.Summary) {
		if s.Count == 0 {
			return
		}
		fmt.Printf("%-7s n=%-6d p50 %-8v p99 %-8v max %v\n", name, s.Count,
			time.Duration(s.P50ns), time.Duration(s.P99ns), time.Duration(s.Maxns))
	}
	printClass("mutate", res.Mutate)
	printClass("frame", res.Frame)
	fmt.Printf("dispatch retries %d\n", res.DispatchRetries)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		werr := telemetry.WriteBenchArtifact(f, &art, loadgen.ArtifactKinds...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail(werr)
		}
		fmt.Printf("wrote %s (v%d, kind %s)\n", *out, art.V, art.Kind)
	}
	if *check {
		if err := res.Check(fleet.Scenario); err != nil {
			fail(err)
		}
		fmt.Println("check: all acceptance invariants hold")
	}
}
