// Command ocsmld runs the OCSML protocol over a real network: actual
// TCP connections between processes, the wire codec on every envelope,
// and (with -datadir) checkpoints fsync'd to real files.
//
// Two modes:
//
//	ocsmld -spawn-all -n 4 -datadir /tmp/ocsml        # whole cluster, one command
//	ocsmld -id 0 -peers host0:7000,host1:7000,...     # one process of a cluster
//
// Spawn-all launches an N-process cluster on localhost, runs the
// workload to completion and prints the same headline metrics as the
// simulator (cmd/ckptsim) plus the wire-level ones only a real network
// produces (frames, encoded piggyback bytes, reconnects).
//
// Daemon mode hosts a single process; start one ocsmld per entry in
// -peers (the -id'th address is bound locally). Both modes run a
// transport.Cluster — daemon mode one that hosts only its own process —
// so start-up, recovery, storage GC and shutdown are the same code. A
// killed daemon is restarted with -recover: before resuming it
// coordinates a wire-level recovery round (RB_BGN/RB_LINE/RB_CMT/RB_ACK,
// see DESIGN.md) that agrees the recovery line with the surviving
// daemons, rolls them back, and fences the pre-crash epoch; its own
// state is then reloaded from the -datadir manifest at the agreed line.
// -resume <seq> remains as the manual override when the line is known
// out of band.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ocsml/internal/admin"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/transport"
	"ocsml/internal/workload"
)

var patterns = map[string]workload.Pattern{
	"uniform":       workload.UniformRandom,
	"ring":          workload.Ring,
	"client-server": workload.ClientServer,
	"mesh":          workload.Mesh,
	"bursty":        workload.Bursty,
	"stencil":       workload.BSPStencil,
}

func main() {
	var (
		spawnAll  = flag.Bool("spawn-all", false, "launch an N-process localhost cluster in this one command")
		n         = flag.Int("n", 4, "cluster size (spawn-all)")
		id        = flag.Int("id", -1, "this process's id (daemon mode)")
		peers     = flag.String("peers", "", "comma-separated host:port list, one per process; entry -id is bound locally")
		datadir   = flag.String("datadir", "", "directory for file-backed stable storage (enables restart)")
		resume    = flag.Int("resume", -1, "restart from this finalized checkpoint seq (daemon mode; needs -datadir)")
		recoverF  = flag.Bool("recover", false, "coordinate a wire-level recovery round with the surviving peers before resuming (daemon mode; needs -datadir; overrides -resume)")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		steps     = flag.Int64("steps", 400, "work steps per process")
		think     = flag.Duration("think", 4*time.Millisecond, "mean computation per step (real time)")
		pattern   = flag.String("pattern", "uniform", "workload: uniform|ring|client-server|mesh|bursty|stencil")
		msgBytes  = flag.Int64("msg", 2<<10, "application message payload bytes")
		interval  = flag.Duration("interval", 500*time.Millisecond, "checkpoint period (real time)")
		timeout   = flag.Duration("timeout", 150*time.Millisecond, "convergence timeout (real time)")
		bw        = flag.Int64("bw", 64<<20, "modeled stable-storage bandwidth, bytes/sec (0 = no modeled delay)")
		runFor    = flag.Duration("run-for", 60*time.Second, "overall deadline")
		drain     = flag.Duration("drain", 750*time.Millisecond, "settle time after the workload completes")
		reliableF = flag.Bool("reliable", true, "ack/retransmit middleware (covers frames lost to reconnects)")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		chaos     = flag.Bool("chaos", false, "run one seeded fault-injection round (drops, delays, partitions, kill+restart) and verify the consistency invariants")
		chaosFor  = flag.Duration("chaos-for", 1500*time.Millisecond, "fault-phase length for -chaos")
		adminAddr = flag.String("admin-addr", "", "listen address for the admin control plane (status/manifest/recovery/checkpoint/metrics; see cmd/ocsmlctl)")
		gcEvery   = flag.Duration("gc-interval", 0, "storage GC period: prune finalized checkpoints below the globally durable S_k watermark (needs -datadir; 0 disables)")
		groupWin  = flag.Duration("group-window", 0, "group-commit flush window: how long a finalize lingers for batch-mates before forcing its fsync (0 = flush immediately)")
	)
	flag.Parse()

	if *chaos {
		runChaos(*n, *seed, *datadir, *chaosFor, *jsonOut)
		return
	}
	pat, ok := patterns[*pattern]
	if !ok {
		fatalf("unknown pattern %q", *pattern)
	}
	opt := core.DefaultOptions()
	opt.Interval = des.Duration(*interval)
	opt.Timeout = des.Duration(*timeout)
	fsOpts := fsstore.DefaultOptions()
	fsOpts.GroupWindow = *groupWin
	cfg := transport.ClusterConfig{
		N: *n, ID: *id, Seed: *seed, Datadir: *datadir, Opt: opt, Reliable: *reliableF,
		Workload:       workload.Config{Pattern: pat, Steps: *steps, Think: des.Duration(*think), MsgBytes: *msgBytes},
		WriteBandwidth: *bw, Timeout: *runFor, Drain: *drain,
		FSOptions: fsOpts, GCInterval: *gcEvery,
	}
	if *spawnAll {
		runCluster(cfg, *adminAddr, *jsonOut)
		return
	}
	if *peers == "" {
		fatalf("daemon mode needs -peers (or use -spawn-all)")
	}
	cfg.Addrs = strings.Split(*peers, ",")
	runDaemon(cfg, *resume, *recoverF, *adminAddr, *jsonOut)
}

// runChaos is -chaos: one seeded fault-injection round against a live
// localhost TCP cluster. Everything printed to stdout is a pure function
// of (-n, -seed, -chaos-for), so two runs with the same flags emit
// byte-identical schedules and invariant reports; timing-dependent fault
// counters go to stderr.
func runChaos(n int, seed int64, datadir string, faultFor time.Duration, jsonOut bool) {
	if datadir == "" {
		tmp, err := os.MkdirTemp("", "ocsml-chaos-*")
		if err != nil {
			fatalf("%v", err)
		}
		defer os.RemoveAll(tmp)
		datadir = tmp
	}
	cfg := transport.DefaultChaosConfig(n, seed, datadir, faultFor)
	rep, err := transport.RunChaos(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "ocsmld: faults dropped=%d partitioned=%d dup=%d delayed=%d reordered=%d passed=%d\n",
		rep.FaultStats.Dropped, rep.FaultStats.Partitioned, rep.FaultStats.Duplicated,
		rep.FaultStats.Delayed, rep.FaultStats.Reordered, rep.FaultStats.Passed)
	if jsonOut {
		emitJSON(rep)
	} else {
		fmt.Print(rep.Render())
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

// run drives a built cluster to the end of its workload: start it,
// bring up the admin control plane (after the nodes, so /v1/readyz never
// answers 200 for a process whose mesh is not yet serving), wait and
// drain. SIGINT/SIGTERM end the run early. Either way the stop is
// graceful and in dependency order: the admin server drains, queued
// stable-storage writes reach the disk, then the mesh closes. The error
// is Cluster.Finish's: the deadline passed or a signal arrived before
// the workload completed.
func run(c *transport.Cluster, datadir, adminAddr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := c.Start(); err != nil {
		fatalf("%v", err)
	}
	var beforeStop func()
	if adminAddr != "" {
		srv := admin.NewServer(admin.Config{
			Nodes: c.Nodes, Registry: c.Metrics, Datadir: datadir, N: len(c.Addrs()),
		})
		if err := srv.Start(adminAddr); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ocsmld: admin control plane on %s\n", srv.Addr())
		beforeStop = func() { srv.Close() }
	}
	return c.Finish(ctx, beforeStop)
}

// runCluster is -spawn-all: the whole cluster in one OS process, nodes
// talking over real localhost TCP.
func runCluster(cfg transport.ClusterConfig, adminAddr string, jsonOut bool) {
	c, err := transport.NewCluster(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := run(c, cfg.Datadir, adminAddr); err != nil {
		fatalf("%v", err)
	}
	rep, err := c.Report()
	if err != nil {
		fatalf("consistency check failed: %v", err)
	}
	if jsonOut {
		emitJSON(rep)
		return
	}
	fmt.Printf("protocol            ocsml (tcp mesh)\n")
	fmt.Printf("processes           %d\n", rep.N)
	fmt.Printf("completed           %v\n", rep.Completed)
	fmt.Printf("makespan            %.3fs\n", rep.Makespan.Seconds())
	fmt.Printf("app messages        %d\n", rep.AppMessages)
	fmt.Printf("control messages    %d\n", rep.ControlMessages)
	fmt.Printf("piggyback bytes     %d (%.1f bytes/msg on the wire)\n", rep.PiggybackBytes, rep.PiggybackBytesPerMsg)
	fmt.Printf("global checkpoints  %d\n", rep.GlobalCheckpoints)
	fmt.Printf("consistency         OK (%d global checkpoints verified)\n", len(rep.ConsistentSeqs))
	fmt.Printf("frames sent         %d (%d bytes)\n", rep.FramesSent, rep.FrameBytes)
	fmt.Printf("reconnects          %d\n", rep.Reconnects)
	fmt.Printf("frames dropped      %d\n", rep.Dropped)
	fmt.Printf("message log bytes   %d\n", rep.LogBytes)
	if cfg.Datadir != "" {
		last, err := fsstore.LastCompleteSeq(cfg.Datadir, rep.N)
		if err != nil {
			fatalf("manifest check: %v", err)
		}
		fmt.Printf("durable S_k         %d (all %d manifests)\n", last, rep.N)
	}
	printCounters(rep.Counters)
}

// runDaemon hosts one process of a cluster whose other members are
// separate ocsmld invocations (possibly on other machines): a
// transport.Cluster that hosts only process cfg.ID. Its recorder,
// checkpoint store and metric registry observe only this process.
func runDaemon(cfg transport.ClusterConfig, resume int, recoverFlag bool, adminAddr string, jsonOut bool) {
	if (recoverFlag || resume >= 0) && cfg.Datadir == "" {
		fatalf("-recover and -resume need -datadir")
	}
	id := cfg.ID
	c, err := transport.NewCluster(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	switch {
	case recoverFlag:
		// Restart after a crash: run the wire-level recovery handshake
		// from this process's own address — survivors report their
		// durable manifests, the line is agreed as the highest
		// fully-durable seq, they roll back, and the committed epoch
		// fences all pre-crash traffic — then resume at the line.
		if resume, err = c.Recover(id); err != nil {
			fatalf("recovery: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ocsmld: P%d recovery committed line %d\n", id, resume)
	case resume >= 0:
		if err := c.Restart(id, resume); err != nil {
			fatalf("resuming at %d: %v", resume, err)
		}
	}
	fmt.Fprintf(os.Stderr, "ocsmld: P%d listening on %s (n=%d, resume=%d)\n", id, cfg.Addrs[id], len(cfg.Addrs), resume)
	completed := run(c, cfg.Datadir, adminAddr) == nil

	node := c.Node(id)
	dr := struct {
		ID             int
		Completed      bool
		FinalizedSeqs  []int
		DurableLastSeq int
		Mesh           transport.MeshStats
		StaleDropped   int64
		DecodeErrors   int64
		Counters       map[string]int64
	}{
		ID: id, Completed: completed,
		Mesh:           node.Mesh().Stats(),
		StaleDropped:   node.StaleDropped(),
		DecodeErrors:   node.DecodeErrors(),
		Counters:       c.Counters(),
		DurableLastSeq: -1,
	}
	for _, r := range c.Ckpts.Proc(id).All() {
		if r.Seq > 0 && r.FinalizedAt != 0 {
			dr.FinalizedSeqs = append(dr.FinalizedSeqs, r.Seq)
		}
	}
	if fs := c.FS(id); fs != nil {
		dr.DurableLastSeq = fs.LastSeq()
	}
	if jsonOut {
		emitJSON(dr)
		return
	}
	fmt.Printf("process             P%d\n", dr.ID)
	fmt.Printf("completed           %v\n", dr.Completed)
	fmt.Printf("finalized seqs      %v\n", dr.FinalizedSeqs)
	fmt.Printf("durable last seq    %d\n", dr.DurableLastSeq)
	fmt.Printf("frames sent/recv    %d/%d\n", dr.Mesh.FramesSent, dr.Mesh.FramesRecv)
	fmt.Printf("bytes sent/recv     %d/%d\n", dr.Mesh.BytesSent, dr.Mesh.BytesRecv)
	fmt.Printf("reconnects          %d\n", dr.Mesh.Reconnects)
	fmt.Printf("stale dropped       %d\n", dr.StaleDropped)
	printCounters(dr.Counters)
}

func printCounters(counters map[string]int64) {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-24s %d\n", name, counters[name])
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ocsmld: "+format+"\n", args...)
	os.Exit(1)
}
