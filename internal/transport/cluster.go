package transport

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// ClusterConfig parameterizes a cluster: the processes this OS process
// hosts, talking to each other and to their peers over real TCP — both
// modes of cmd/ocsmld (-spawn-all hosts all N on localhost, daemon mode
// hosts one) and the harness of the transport integration tests.
type ClusterConfig struct {
	N    int
	Seed int64
	// Addrs, when non-nil, is the address table of a cluster spread over
	// OS processes (one entry per process; N becomes len(Addrs)), and
	// this cluster hosts only process ID, bound at Addrs[ID]. Nil hosts
	// all N processes on ephemeral localhost ports.
	Addrs []string
	ID    int
	// Datadir, when non-empty, enables file-backed stable storage (one
	// fsstore directory per process).
	Datadir string
	// Opt configures the OCSML protocol. Intervals are real time here.
	Opt core.Options
	// Reliable wraps the protocol with the ack/retransmit middleware,
	// covering the frames a saturated or reconnecting peer queue drops.
	Reliable bool
	// Workload drives the synthetic application.
	Workload workload.Config
	// WriteBandwidth models stable-storage service time (bytes/sec).
	WriteBandwidth int64
	// Timeout bounds Run.
	Timeout time.Duration
	// Drain is how long Run keeps the cluster alive after the workload
	// completes, letting in-flight finalizations settle.
	Drain time.Duration
	// Hook, when non-nil, filters every outgoing frame of every node —
	// the chaos runner's fault-injection point (internal/faultnet).
	Hook SendHook
	// Metrics is the shared named-metric registry of the cluster's nodes
	// (a fresh one when nil). The free-form counter namespace lands in
	// its events family; Counter/Counters read from there.
	Metrics *metrics.Registry
	// FSOptions tunes the durability engine of every node's store (group
	// window, batch depth, segment size, snapshot cadence). Zero fields
	// select fsstore defaults.
	FSOptions fsstore.Options
	// GCInterval, when positive, runs the storage garbage collector: a
	// cluster goroutine periodically intersects the durable manifests and
	// prunes every hosted store below the globally finalized S_k
	// watermark. Requires Datadir. Zero disables collection.
	GCInterval time.Duration
}

// Cluster is the set of transport nodes one OS process hosts, sharing a
// recorder, checkpoint store and metric registry, connected by real
// TCP. Every way a process comes up — fresh (Start), from a known line
// (Restart) or through a coordinated recovery round (Recover) — and its
// storage GC and shutdown run here, whether the cluster hosts all N
// processes or one.
type Cluster struct {
	cfg   ClusterConfig
	Rec   *trace.Recorder
	Ckpts *checkpoint.Store
	// Metrics is the shared registry (ClusterConfig.Metrics or a fresh
	// one); the admin server serves it at /metrics.
	Metrics *metrics.Registry

	addrs []string
	// lns holds the listeners NewCluster bound, until a node or a
	// recovery round takes them over.
	lns   []net.Listener
	nodes []*Node // elements replaced under mu by Restart; nil until built
	//ocsml:guardedby mu
	fss   []*fsstore.Store // elements replaced under mu by Recover
	base  time.Time
	epoch int

	count func(name string, delta int64)

	mu     sync.Mutex
	doneCh chan struct{}

	//ocsml:guardedby mu
	makespan time.Duration

	// recovering pauses the GC loop while Recover/Restart reload a
	// victim's store — collecting below the line mid-reload would pull
	// records the restart is about to read.
	//ocsml:guardedby mu
	recovering bool

	gcQuit chan struct{}
	gcOnce sync.Once // guards gcQuit close (Stop may run twice)
	gcWG   sync.WaitGroup
}

// NewCluster binds the hosted processes' listeners and opens their
// stores. No node exists until Start, Restart or Recover builds it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Addrs != nil {
		cfg.N = len(cfg.Addrs)
		if cfg.ID < 0 || cfg.ID >= cfg.N {
			return nil, fmt.Errorf("transport: id %d out of range for %d addresses", cfg.ID, cfg.N)
		}
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("transport: cluster needs at least 2 processes")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 500 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	c := &Cluster{
		cfg:     cfg,
		Rec:     trace.NewRecorder(),
		Ckpts:   checkpoint.NewStore(cfg.N),
		Metrics: cfg.Metrics,
		base:    time.Now(), //ocsml:wallclock shared time origin of the real-network cluster
		count:   cfg.Metrics.EventSink(),
		doneCh:  make(chan struct{}, 1),
		addrs:   append([]string(nil), cfg.Addrs...),
		lns:     make([]net.Listener, cfg.N),
		nodes:   make([]*Node, cfg.N),
		fss:     make([]*fsstore.Store, cfg.N),
		gcQuit:  make(chan struct{}),
	}
	for i := 0; i < cfg.N; i++ {
		if !c.hosts(i) {
			continue
		}
		addr := "127.0.0.1:0"
		if cfg.Addrs != nil {
			addr = cfg.Addrs[i]
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			c.closeListeners()
			return nil, err
		}
		c.lns[i] = ln
		if cfg.Addrs == nil {
			c.addrs = append(c.addrs, ln.Addr().String())
		}
		if cfg.Datadir != "" {
			if _, err := c.openStore(i); err != nil {
				c.closeListeners()
				return nil, err
			}
		}
	}
	return c, nil
}

// hosts reports whether process i runs in this cluster.
func (c *Cluster) hosts(i int) bool { return c.cfg.Addrs == nil || i == c.cfg.ID }

// openStore opens process i's store exactly as a fresh OS process
// would — Open clears crash debris (torn temp files, orphan segments,
// torn batch tails) and rebuilds a corrupt manifest — and installs it.
func (c *Cluster) openStore(i int) (*fsstore.Store, error) {
	fs, err := fsstore.OpenWith(c.cfg.Datadir, i, c.cfg.N, c.cfg.FSOptions)
	if err != nil {
		return nil, err
	}
	fs.SetMetrics(fsstore.NewStoreMetrics(c.Metrics, i))
	c.mu.Lock()
	c.fss[i] = fs
	c.mu.Unlock()
	return fs, nil
}

// listener hands out process i's listener: the one NewCluster bound,
// once, and a fresh bind of the same address after that (a restart).
func (c *Cluster) listener(i int) (net.Listener, error) {
	if ln := c.lns[i]; ln != nil {
		c.lns[i] = nil
		return ln, nil
	}
	return net.Listen("tcp", c.addrs[i])
}

func (c *Cluster) closeListeners() {
	for i, ln := range c.lns {
		if ln != nil {
			ln.Close()
			c.lns[i] = nil
		}
	}
}

// buildNode assembles one node: fresh when rec is nil, otherwise
// resuming from the durable checkpoint rec.
func (c *Cluster) buildNode(i int, rec *checkpoint.Record) (*Node, error) {
	ln, err := c.listener(i)
	if err != nil {
		return nil, err
	}
	var proto protocol.Protocol
	cp := core.New(c.cfg.Opt)
	if rec != nil {
		cp.SetResume(rec.Seq)
	}
	proto = cp
	if c.cfg.Reliable {
		proto = reliable.Wrap(cp, reliable.Options{})
	}
	n, err := NewNode(NodeConfig{
		ID: i, Addrs: c.addrs, Listener: ln,
		Seed: c.cfg.Seed, Epoch: c.epoch, ResumeRec: rec,
		Proto: proto, App: workload.Factory(c.cfg.Workload)(i, c.cfg.N),
		Rec: c.Rec, Ckpts: c.Ckpts, Metrics: c.Metrics,
		Hook:           c.cfg.Hook,
		FS:             c.FS(i),
		WriteBandwidth: c.cfg.WriteBandwidth,
		Base:           c.base,
		OnDone:         c.nodeDone,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	c.mu.Lock()
	c.nodes[i] = n
	c.mu.Unlock()
	return n, nil
}

// Addrs returns the cluster's TCP addresses.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Node returns process i's node (the current incarnation — Restart
// replaces the element; nil before the process is first built or when
// another OS process hosts it).
func (c *Cluster) Node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Nodes snapshots the built nodes — the admin server's view of the
// locally hosted processes (called per request, so a restarted node is
// observed).
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// FS returns process i's on-disk store (nil without a datadir or for a
// process another OS process hosts; the current incarnation — Recover
// replaces the element).
func (c *Cluster) FS(i int) *fsstore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fss[i]
}

// setRecovering flips the GC pause flag around a recovery.
func (c *Cluster) setRecovering(v bool) {
	c.mu.Lock()
	c.recovering = v
	c.mu.Unlock()
}

// Start builds a fresh node for every hosted process that Restart or
// Recover has not already brought up, launches every node, and starts
// the storage GC loop when configured.
func (c *Cluster) Start() error {
	for i := 0; i < c.cfg.N; i++ {
		if c.hosts(i) && c.Node(i) == nil {
			if _, err := c.buildNode(i, nil); err != nil {
				return err
			}
		}
	}
	for _, n := range c.Nodes() {
		n.Start()
	}
	if c.cfg.Datadir != "" && c.cfg.GCInterval > 0 {
		c.gcWG.Add(1)
		go c.gcLoop()
	}
	return nil
}

// gcLoop periodically prunes every hosted store below the globally
// finalized S_k watermark: the intersection of the durable manifests is
// the last checkpoint line recovery can ever need, so everything
// strictly below it is dead weight (the paper's retention argument).
// The datadir is shared, so a daemon reads its peers' manifests here
// too but prunes only its own store. Collection skips ticks while a
// recovery is reloading a store.
func (c *Cluster) gcLoop() {
	defer c.gcWG.Done()
	ticker := time.NewTicker(c.cfg.GCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.gcQuit:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		paused := c.recovering
		c.mu.Unlock()
		if paused {
			continue
		}
		wm, err := fsstore.LastCompleteSeq(c.cfg.Datadir, c.cfg.N)
		if err != nil || wm <= 0 {
			continue // a peer's manifest is missing or torn; retry next tick
		}
		for i := 0; i < c.cfg.N; i++ {
			fs := c.FS(i)
			if fs == nil {
				continue
			}
			if err := fs.GCTo(wm); err != nil {
				c.count("fsstore.gc_errors", 1)
			}
		}
		c.count("fsstore.gc_sweeps", 1)
	}
}

// WaitDone blocks until every hosted process has completed its workload
// quota or the deadline passes.
func (c *Cluster) WaitDone(timeout time.Duration) error {
	return c.waitDone(context.Background(), timeout)
}

func (c *Cluster) waitDone(ctx context.Context, timeout time.Duration) error {
	deadline := time.After(timeout)
	for !c.allDone() {
		select {
		case <-c.doneCh:
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline:
			return fmt.Errorf("transport: workload did not complete within %v", timeout)
		}
	}
	return nil
}

// Run executes the cluster start-to-finish: start, wait for the
// workload, drain, stop.
func (c *Cluster) Run() error {
	if err := c.Start(); err != nil {
		c.Stop()
		return err
	}
	return c.Finish(context.Background(), nil)
}

// Finish is the second half of Run, for a cluster already started: it
// waits for the workload (up to ClusterConfig.Timeout), keeps the
// cluster up through the drain, then runs beforeStop (when non-nil) and
// Stop. Cancelling ctx ends the wait with ctx's error, or cuts the
// drain short. ocsmld shuts its admin server down in beforeStop, so an
// in-flight status read still observes a live mesh — the shutdown
// ordering the control plane requires.
func (c *Cluster) Finish(ctx context.Context, beforeStop func()) error {
	defer c.Stop()
	if beforeStop != nil {
		defer beforeStop() // deferred after Stop, so it runs first (LIFO)
	}
	if err := c.waitDone(ctx, c.cfg.Timeout); err != nil {
		return err
	}
	//ocsml:wallclock makespan of a real-network run is wall time by definition
	makespan := time.Since(c.base)
	c.mu.Lock()
	c.makespan = makespan
	c.mu.Unlock()
	select {
	case <-time.After(c.cfg.Drain):
	case <-ctx.Done():
	}
	return nil
}

// Stop shuts the cluster down in dependency order: the GC loop stops,
// queued stable-storage writes reach the disk (so a graceful stop never
// abandons an in-flight finalization the manifest was about to record),
// then the nodes close.
func (c *Cluster) Stop() {
	c.gcOnce.Do(func() { close(c.gcQuit) })
	c.gcWG.Wait()
	nodes := c.Nodes()
	for _, n := range nodes {
		if !n.closed.Load() && !n.WaitStorageIdle(2*time.Second) {
			c.count("fsstore.drain_timeouts", 1)
		}
	}
	for _, n := range nodes {
		n.Close()
	}
	c.closeListeners()
}

// Kill crashes process i: its node stops abruptly, volatile state (the
// in-memory protocol state, unflushed tentative checkpoints and logs)
// is gone; only its fsstore directory survives.
func (c *Cluster) Kill(i int) {
	n := c.Node(i)
	n.Close()
	c.Rec.Record(trace.Event{T: n.Now(), Kind: trace.KFail, Proc: i, Peer: -1, Seq: -1})
	c.count("recovery.failures", 1)
}

// Recover brings a crashed process back through the wire-level recovery
// protocol: coordinate the recovery line from the cluster's durable
// manifests (RB_BGN -> RB_LINE -> RB_CMT -> RB_ACK, see Coordinate) on
// the victim's address, then Restart the victim at the agreed line. The
// survivors roll back through their RB_* handlers — the cluster does not
// reach into their state — so a victim killed in-process and an ocsmld
// daemon restarted with -recover run this same path. Returns the agreed
// line.
func (c *Cluster) Recover(victim int) (int, error) {
	fs := c.FS(victim)
	if fs == nil {
		return -1, fmt.Errorf("transport: recovery of P%d needs a datadir and must be hosted here", victim)
	}
	// Pause the GC loop for the whole recovery: a sweep racing the
	// reload could collect records the restart is about to read.
	c.setRecovering(true)
	defer c.setRecovering(false)
	if c.Node(victim) != nil {
		// An incarnation crashed in this OS process: its store object
		// holds pre-crash state, so reopen from disk before the store
		// votes with its manifest. A freshly started process already
		// opened it in NewCluster.
		var err error
		if fs, err = c.openStore(victim); err != nil {
			return -1, err
		}
	}
	ln, err := c.listener(victim)
	if err != nil {
		return -1, err
	}
	dec, err := Coordinate(CoordinatorConfig{
		ID: victim, Addrs: c.addrs, Seed: c.cfg.Seed,
		Seqs: fs.Manifest().Seqs, Epoch: c.epoch,
		Hook: c.cfg.Hook, Count: c.count,
	}, ln) // closes ln, so the restarted node can rebind
	if err != nil {
		return -1, err
	}
	c.epoch = dec.Epoch
	c.count("recovery.recoveries", 1)
	return dec.Line, c.Restart(victim, dec.Line)
}

// Restart brings process i up from its on-disk store at a recovery
// line: the store is truncated above the line, P_i's durable
// checkpoints are reloaded, and a node resuming from the line's record
// rebinds the original address and starts. Recover calls it after the
// wire handshake has rolled the survivors back to the same line and
// advanced the cluster epoch; ocsmld -resume calls it directly when the
// line is known out of band.
func (c *Cluster) Restart(i, line int) error {
	fs := c.FS(i)
	if fs == nil {
		return fmt.Errorf("transport: restart of P%d needs a datadir and must be hosted here", i)
	}
	if err := fs.TruncateAfter(line); err != nil {
		return err
	}
	// Rebuild the in-memory view of P_i's durable checkpoints.
	c.Ckpts.Proc(i).TruncateAfter(-1)
	man := fs.Manifest()
	sort.Ints(man.Seqs)
	var rec checkpoint.Record
	for _, seq := range man.Seqs {
		r, err := fs.Load(seq)
		if err != nil {
			return err
		}
		c.Ckpts.Proc(i).Add(r)
		if seq == line {
			rec = r
		}
	}
	if rec.Seq != line && line > 0 {
		return fmt.Errorf("transport: P%d has no durable checkpoint at line %d", i, line)
	}
	n, err := c.buildNode(i, &rec)
	if err != nil {
		return err
	}
	n.Start()
	c.count("recovery.restarts", 1)
	return nil
}

// Counter reads one free-form counter from the registry's events family.
func (c *Cluster) Counter(name string) int64 {
	v, _ := c.Metrics.Value(metrics.EventFamily, name)
	return v
}

// Counters returns a snapshot of the free-form counter table.
func (c *Cluster) Counters() map[string]int64 {
	return c.Metrics.EventCounts()
}

// nodeDone wakes WaitDone; completion itself is each node's own flag.
func (c *Cluster) nodeDone(int) {
	select {
	case c.doneCh <- struct{}{}:
	default:
	}
}

// allDone reports whether every hosted process has a node that
// completed its quota.
func (c *Cluster) allDone() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range c.nodes {
		if c.hosts(i) && (n == nil || !n.Completed()) {
			return false
		}
	}
	return true
}

// CheckGlobals verifies every complete global checkpoint against the
// recorded trace (same check as the simulator's Result.CheckAllGlobals)
// and returns the verified sequence numbers.
func (c *Cluster) CheckGlobals() ([]int, error) {
	var seqs []int
	for _, seq := range c.Ckpts.CompleteSeqs() {
		if seq == 0 {
			continue
		}
		cut, ok := c.Rec.CutAt(c.cfg.N, trace.KFinalize, seq)
		if !ok {
			return seqs, fmt.Errorf("transport: no complete cut for seq %d", seq)
		}
		rep := c.Rec.CheckCut(cut)
		if !rep.Consistent() {
			return seqs, fmt.Errorf("transport: S_%d inconsistent: %d orphan(s)", seq, len(rep.Orphans))
		}
		seqs = append(seqs, seq)
	}
	return seqs, nil
}

// Report summarizes a cluster run with the simulator's headline metrics
// plus the wire-level ones only a real network can produce.
type Report struct {
	N                 int
	Completed         bool
	Makespan          time.Duration
	GlobalCheckpoints int
	ConsistentSeqs    []int

	AppMessages     int64
	ControlMessages int64
	PiggybackBytes  int64
	// PiggybackBytesPerMsg is the real per-message piggyback overhead in
	// encoded bytes (discriminator + csn + stat + tentSet bitmap).
	PiggybackBytesPerMsg float64

	FramesSent int64
	FrameBytes int64
	Reconnects int64
	Dropped    int64

	LogBytes int64
	Counters map[string]int64
}

// Report builds the run summary (call after Run or Stop).
func (c *Cluster) Report() (*Report, error) {
	seqs, err := c.CheckGlobals()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	makespan := c.makespan
	c.mu.Unlock()
	r := &Report{
		N:              c.cfg.N,
		Completed:      c.allDone(),
		Makespan:       makespan,
		ConsistentSeqs: seqs,
		Counters:       c.Counters(),
	}
	for _, s := range seqs {
		if s > 0 {
			r.GlobalCheckpoints++
		}
	}
	r.AppMessages = r.Counters["app_msgs"]
	for name, v := range r.Counters {
		if strings.HasPrefix(name, "ctl.") {
			r.ControlMessages += v
		}
	}
	r.PiggybackBytes = r.Counters["wire.piggyback_bytes"]
	if r.AppMessages > 0 {
		r.PiggybackBytesPerMsg = float64(r.PiggybackBytes) / float64(r.AppMessages)
	}
	for _, n := range c.Nodes() {
		st := n.Mesh().Stats()
		r.FramesSent += st.FramesSent
		r.FrameBytes += st.BytesSent
		r.Reconnects += st.Reconnects
		r.Dropped += st.Dropped
	}
	for p := 0; p < c.cfg.N; p++ {
		for _, rec := range c.Ckpts.Proc(p).All() {
			r.LogBytes += rec.LogBytes()
		}
	}
	return r, nil
}
