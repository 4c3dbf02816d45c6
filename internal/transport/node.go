package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/wire"
)

// NodeConfig parameterizes one process of the real-network runtime.
type NodeConfig struct {
	ID int
	// Addrs maps process id to TCP address; N is len(Addrs).
	Addrs []string
	// Listener is this process's already-bound listener for Addrs[ID].
	Listener net.Listener
	// Seed derives the node's deterministic random source.
	Seed int64
	// Epoch is the node's starting epoch; envelopes from older epochs
	// are dropped on delivery (stale pre-rollback traffic).
	Epoch int
	// ResumeRec, when non-nil, restarts the node from that already-durable
	// checkpoint (the protocol must have been told, see
	// core.Protocol.SetResume): the node replays the record's message log
	// and rewinds the application to its recorded progress.
	ResumeRec *checkpoint.Record

	// Proto and App are this process's protocol and application.
	Proto protocol.Protocol
	App   protocol.App

	// Rec and Ckpts may be shared across the nodes of a cluster.
	Rec   *trace.Recorder
	Ckpts *checkpoint.Store

	// Metrics is the named-metric registry the node registers its wire
	// and recovery series into, and whose events family receives its
	// free-form counters (shared across the nodes of a cluster). A nil
	// Metrics gets a fresh registry.
	Metrics *metrics.Registry

	// FS, when non-nil, persists every finalized checkpoint to disk at
	// the moment the protocol issues its stable-storage write.
	FS *fsstore.Store

	// Hook, when non-nil, filters every outgoing frame (fault injection;
	// see internal/faultnet).
	Hook SendHook

	// WriteBandwidth models the stable-storage service rate in bytes
	// per second (the real fsync cost of FS comes on top). Default: no
	// modeled delay.
	WriteBandwidth int64

	// Base is the shared time origin: Now() = time.Since(Base). Nodes of
	// one cluster share it so virtual timestamps are comparable; a
	// restarted node keeps the original base so its clock stays
	// monotonic across the crash.
	Base time.Time

	// OnDone fires when the application completes its quota (again
	// after a rollback rewound it below the quota and it completed anew).
	OnDone func(id int)
}

// Node hosts one process's protocol + application on real time, with
// envelope delivery over the TCP mesh. All protocol and application
// callbacks are serialized on the node's loop goroutine.
type Node struct {
	cfg   NodeConfig
	count func(name string, delta int64)
	mesh  *Mesh
	rng   *rand.Rand
	// enc serializes outgoing envelopes into pooled frames; all Sends
	// run on the loop goroutine, so its scratch state is single-owner.
	enc wire.Encoder //ocsml:loopowned loop

	inbox chan func()
	quit  chan struct{}
	wg    sync.WaitGroup

	storageCh chan storeReq
	storageQ  atomic.Int32

	idBase  int64
	idCtr   atomic.Int64
	started atomic.Bool
	closed  atomic.Bool
	// done is the application's completion flag: set by AppCtx.Done,
	// cleared when a rollback rewinds the application (before it
	// restores, so a restore that re-completes the quota re-sets it).
	done atomic.Bool

	// Single-goroutine state, proven by the loopowned analyzer: every
	// access runs on the named goroutine or in a closure posted to it.
	epoch  int    //ocsml:loopowned loop
	fold   uint64 //ocsml:loopowned loop
	work   int64  //ocsml:loopowned loop
	appSeq int64  //ocsml:loopowned loop
	stall  int    //ocsml:loopowned loop
	// deferred holds loop-posted work parked while the app is stalled;
	// the stored closures replay on the loop.
	//ocsml:loopowned loop
	//ocsml:looppost loop
	deferred []func()
	// persisted is the highest seq written to FS; recLine the last
	// committed rollback/resume line (-1: never).
	persisted int //ocsml:loopowned storageLoop
	recLine   int //ocsml:loopowned loop

	staleDropped atomic.Int64
	decodeErrors atomic.Int64

	// Registry-backed series (see registerMetrics).
	mAppFrames *metrics.Counter
	mRollbacks *metrics.Counter
	mReplayed  *metrics.Counter
}

type storeReq struct {
	tag   string
	bytes int64
	done  func(start, end des.Time)
	// fn, when set, is a bare operation serialized with the disk writes
	// (rollback truncation); the other fields are ignored.
	fn func()
}

// NewNode builds a node (not yet started).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID < 0 || cfg.ID >= len(cfg.Addrs) {
		return nil, fmt.Errorf("transport: invalid node id %d of %d", cfg.ID, len(cfg.Addrs))
	}
	if cfg.Proto == nil || cfg.App == nil || cfg.Rec == nil || cfg.Ckpts == nil {
		return nil, fmt.Errorf("transport: node needs proto, app, recorder and store")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Base.IsZero() {
		cfg.Base = time.Now() //ocsml:wallclock standalone node anchors its own time origin
	}
	resume := -1
	if cfg.ResumeRec != nil {
		resume = cfg.ResumeRec.Seq
	}
	n := &Node{
		cfg:       cfg,
		count:     cfg.Metrics.EventSink(),
		rng:       rand.New(rand.NewSource(cfg.Seed + int64(cfg.ID)*7919)),
		inbox:     make(chan func(), 4096),
		quit:      make(chan struct{}),
		storageCh: make(chan storeReq, 1024),
		epoch:     cfg.Epoch,
		persisted: resume,
		recLine:   resume,
	}
	// Envelope IDs must be unique across OS processes AND across the
	// incarnations of one process: a restarted node's counter starts at
	// zero again, so without the epoch in the ID a post-restart envelope
	// would alias a pre-crash one and confuse trace pairing and dedup.
	// Bits 40+: node, 32-39: starting epoch, 0-31: counter.
	n.idBase = (int64(cfg.ID)+1)<<40 | int64(cfg.Epoch&0xff)<<32
	mesh, err := NewMesh(MeshConfig{
		ID: cfg.ID, Addrs: cfg.Addrs, Seed: cfg.Seed, Hook: cfg.Hook,
		Count: n.count,
	}, cfg.Listener, n.acceptConn)
	if err != nil {
		return nil, err
	}
	n.mesh = mesh
	n.registerMetrics()
	if cfg.ResumeRec != nil {
		// Genuine log replay, not a shortcut to the recorded result: fold
		// the durable message log over the restored tentative state and
		// verify it reproduces the fold recorded at finalization.
		n.fold = n.replayFold(cfg.ResumeRec) //ocsml:loopexempt constructor runs before Start spawns the loop
		n.work = cfg.ResumeRec.CFEWork       //ocsml:loopexempt constructor runs before Start spawns the loop
	}
	return n, nil
}

// registerMetrics installs this node's series in the registry. Counters
// backed by mesh/node atomics are function-attached (read at scrape
// time); a restarted node replaces its predecessor's series, so the
// per-proc values restart with the incarnation — exactly the semantics
// of a process restart under Prometheus.
func (n *Node) registerMetrics() {
	reg := n.cfg.Metrics
	proc := fmt.Sprintf("%d", n.cfg.ID)
	m := n.mesh
	reg.MustCounterVec("ocsml_wire_frames_sent_total",
		"Frames written to peer TCP connections.", "proc").Attach(m.framesSent.Load, proc)
	reg.MustCounterVec("ocsml_wire_frames_recv_total",
		"Frames read from peer TCP connections.", "proc").Attach(m.framesRecv.Load, proc)
	reg.MustCounterVec("ocsml_wire_bytes_sent_total",
		"Bytes written to peer TCP connections, including frame headers.", "proc").Attach(m.bytesSent.Load, proc)
	reg.MustCounterVec("ocsml_wire_bytes_recv_total",
		"Bytes read from peer TCP connections, including frame headers.", "proc").Attach(m.bytesRecv.Load, proc)
	reg.MustCounterVec("ocsml_wire_reconnects_total",
		"Peer connections re-established after loss.", "proc").Attach(m.reconnects.Load, proc)
	reg.MustCounterVec("ocsml_wire_frames_dropped_total",
		"Frames dropped at a full peer queue (recovered by retransmission).", "proc").Attach(m.dropped.Load, proc)
	reg.MustCounterVec("ocsml_wire_decode_errors_total",
		"Frames the wire codec rejected.", "proc").Attach(n.decodeErrors.Load, proc)
	reg.MustCounterVec("ocsml_wire_stale_dropped_total",
		"Envelopes dropped at the epoch fence (pre-rollback traffic).", "proc").Attach(n.staleDropped.Load, proc)
	reg.MustGaugeVec("ocsml_node_storage_queue",
		"Stable-storage writes queued or in service.", "proc").
		Attach(func() int64 { return int64(n.storageQ.Load()) }, proc)
	reg.MustCounterVec("ocsml_wire_piggyback_bytes_total",
		"Encoded bytes of protocol piggyback actually written to the wire (after delta encoding).", "proc").Attach(m.pbBytes.Load, proc)
	n.mAppFrames = reg.MustCounterVec("ocsml_wire_app_frames_total",
		"Application frames sent.", "proc").With(proc)
	n.mRollbacks = reg.MustCounterVec("ocsml_recovery_rollbacks_total",
		"Committed rollbacks executed (RB_CMT).", "proc").With(proc)
	n.mReplayed = reg.MustCounterVec("ocsml_recovery_replayed_msgs_total",
		"Logged messages replayed during piecewise-deterministic recovery.", "proc").With(proc)
}

// Start launches the node: mesh, loop and storage goroutines, then the
// protocol and application (or their resumed equivalents).
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(2)
	go n.loop()
	go n.storageLoop()
	// Protocol start is queued before the mesh begins accepting, so no
	// delivery can reach OnDeliver ahead of Start.
	n.post(func() { n.cfg.Proto.Start(n) })
	if rec := n.cfg.ResumeRec; rec != nil {
		n.post(func() {
			ra, ok := n.cfg.App.(protocol.RewindableApp)
			if !ok {
				panic(fmt.Sprintf("transport: P%d application cannot resume", n.cfg.ID))
			}
			ra.Restore(nodeAppCtx{n}, rec.CFEProgress)
		})
	} else {
		n.post(func() { n.cfg.App.Start(nodeAppCtx{n}) })
	}
	n.mesh.Start()
}

// Close stops the node: no further callbacks run, connections drop.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	close(n.quit)
	n.mesh.Close()
	n.wg.Wait()
}

// Mesh exposes the wire fabric (stats).
func (n *Node) Mesh() *Mesh { return n.mesh }

// StaleDropped counts envelopes dropped at the epoch boundary.
func (n *Node) StaleDropped() int64 { return n.staleDropped.Load() }

// DecodeErrors counts frames the wire codec rejected.
func (n *Node) DecodeErrors() int64 { return n.decodeErrors.Load() }

// Completed reports whether the application has completed its quota
// (and no rollback has since rewound it below the quota).
func (n *Node) Completed() bool { return n.done.Load() }

// Post schedules fn on the node's serialized loop (cluster rollback
// uses it to mutate protocol state safely).
//
//ocsml:looppost loop
func (n *Node) Post(fn func()) { n.post(fn) }

// postStorage schedules fn on the storage goroutine, serialized with
// the disk persistence of finalized checkpoints. Returns false when the
// node is already shut down (fn will not run).
//
//ocsml:looppost storageLoop
func (n *Node) postStorage(fn func()) bool {
	select {
	case n.storageCh <- storeReq{fn: fn}:
		return true
	case <-n.quit:
		return false
	}
}

func (n *Node) loop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case fn := <-n.inbox:
			fn()
		}
	}
}

//ocsml:looppost loop
func (n *Node) post(fn func()) {
	select {
	case n.inbox <- fn:
	case <-n.quit:
	}
}

// acceptConn builds one inbound connection's frame handler around a
// private stateful decoder: v2 delta frames decode against exactly that
// connection's frame stream, and a reconnect gets a fresh decoder just
// as the sender's PeerEncoder resets its delta base.
func (n *Node) acceptConn(src int) func(frame []byte) {
	dec := wire.NewDecoder(0)
	return func(frame []byte) { n.onFrame(dec, frame) }
}

// onFrame runs on a mesh reader goroutine: decode, then hop onto the
// loop for delivery. DecodeOwned, because the envelope outlives this
// call (the loop closure) and the protocols assert value payloads.
func (n *Node) onFrame(dec *wire.Decoder, frame []byte) {
	e, err := dec.DecodeOwned(frame)
	if err != nil {
		n.decodeErrors.Add(1)
		n.count("wire.decode_errors", 1)
		return
	}
	n.post(func() {
		// Recovery frames are handled ahead of the epoch fence: the
		// coordinator of a crashed process cannot know the post-rollback
		// epoch it is about to establish, so its frames would otherwise
		// be dropped as stale.
		if protocol.IsRecoveryTag(e.CtlTag) {
			n.cfg.Rec.Record(trace.Event{
				T: n.Now(), Kind: trace.KCtlRecv, Proc: n.cfg.ID, Peer: e.Src,
				MsgID: e.ID, Seq: -1, Tag: e.CtlTag,
			})
			n.handleRecovery(e)
			return
		}
		if e.Epoch < n.epoch {
			n.staleDropped.Add(1)
			n.count("wire.stale_dropped", 1)
			return
		}
		if e.Kind == protocol.KindCtl {
			n.cfg.Rec.Record(trace.Event{
				T: n.Now(), Kind: trace.KCtlRecv, Proc: n.cfg.ID, Peer: e.Src,
				MsgID: e.ID, Seq: -1, Tag: e.CtlTag,
			})
		}
		n.cfg.Proto.OnDeliver(e)
	})
}

// storageLoop serializes this process's stable-storage writes: the
// modeled service time (bytes / WriteBandwidth), plus the genuine disk
// persistence of finalized checkpoints when FS is configured.
func (n *Node) storageLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case req := <-n.storageCh:
			if req.fn != nil {
				req.fn()
				continue
			}
			start := n.Now()
			if bw := n.cfg.WriteBandwidth; bw > 0 {
				d := time.Duration(float64(req.bytes) / float64(bw) * float64(time.Second))
				if d > 0 {
					select {
					case <-time.After(d):
					case <-n.quit:
						// The write is abandoned mid-service: release its
						// queue slot so StorageQueueLen stays balanced.
						n.storageQ.Add(-1)
						return
					}
				}
			}
			if n.cfg.FS != nil && req.tag != "ct" {
				// Finalization flush ("log" / "ct+log"): persist every
				// finalized-but-unpersisted record with a real fsync.
				n.persistFinalized()
			}
			end := n.Now()
			n.storageQ.Add(-1)
			if req.done != nil {
				done := req.done
				n.post(func() { done(start, end) })
			}
		}
	}
}

// persistFinalized writes newly finalized records to the fsstore as one
// group commit: every finalized-but-unpersisted record joins a single
// FinalizeBatch, so a backlog of k checkpoints costs one fsync chain,
// not k. Runs on the storage goroutine; the ProcStore is
// mutex-protected and the persisted watermark is only touched here.
func (n *Node) persistFinalized() {
	var batch []checkpoint.Record
	for _, rec := range n.cfg.Ckpts.Proc(n.cfg.ID).All() {
		if rec.Seq <= n.persisted || rec.FinalizedAt == 0 {
			continue
		}
		if rec.Seq <= n.cfg.FS.LastSeq() {
			// Already on disk: a previous attempt failed after its
			// manifest commit (e.g. the directory fsync); only the
			// watermark is behind.
			n.persisted = rec.Seq
			continue
		}
		batch = append(batch, rec)
	}
	if len(batch) == 0 {
		return
	}
	committed, err := n.cfg.FS.FinalizeBatch(batch)
	// Advance the watermark over exactly the committed prefix. On error,
	// stop there: advancing past a failed write would strand its seq
	// forever, leaving a permanent gap in the manifest; the next flush
	// retries from it.
	if committed > 0 {
		n.persisted = batch[committed-1].Seq
		n.count("fsstore.finalized", int64(committed))
	}
	if err != nil {
		n.count("fsstore.errors", 1)
	}
}

var _ protocol.Env = (*Node)(nil)

// ---- protocol.Env ----

// ID implements protocol.Env.
func (n *Node) ID() int { return n.cfg.ID }

// N implements protocol.Env.
func (n *Node) N() int { return len(n.cfg.Addrs) }

// Now implements protocol.Env: real time since the shared base.
//
//ocsml:wallclock the real-network runtime's virtual clock IS elapsed real time
func (n *Node) Now() des.Time { return des.Time(time.Since(n.cfg.Base)) }

// Rand implements protocol.Env.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Send implements protocol.Env: stamp, encode with the wire codec, and
// enqueue the frame at the peer's mesh queue. The real encoded size —
// not the simulator's synthetic Bytes estimate — is what travels.
// Protocols call it through the Env interface from loop callbacks.
//
//ocsml:loopcontext loop
func (n *Node) Send(e *protocol.Envelope) {
	e.Src = n.cfg.ID
	if e.ID == 0 {
		e.ID = n.idBase | n.idCtr.Add(1)
	}
	e.Epoch = n.epoch
	e.SentAt = n.Now()
	if e.Kind == protocol.KindCtl {
		n.count("ctl."+e.CtlTag, 1)
		n.cfg.Rec.Record(trace.Event{
			T: e.SentAt, Kind: trace.KCtlSend, Proc: n.cfg.ID, Peer: e.Dst,
			MsgID: e.ID, Seq: -1, Tag: e.CtlTag,
		})
	}
	f := wire.AcquireFrame()
	if err := n.enc.EncodeFrame(f, e); err != nil {
		f.Release()
		panic(fmt.Sprintf("transport: P%d cannot encode envelope: %v", n.cfg.ID, err))
	}
	if e.Kind == protocol.KindApp {
		n.count("wire.app_frames", 1)
		n.mAppFrames.Inc()
	}
	// Piggyback bytes are accounted by the mesh at write time, where the
	// per-connection delta encoding decides what actually travels.
	n.mesh.Send(e.Dst, f)
}

// Broadcast implements protocol.Env.
func (n *Node) Broadcast(e *protocol.Envelope) {
	for dst := 0; dst < n.N(); dst++ {
		if dst == n.cfg.ID {
			continue
		}
		cp := *e
		cp.ID = 0
		cp.Dst = dst
		n.Send(&cp)
	}
}

// SetTimer implements protocol.Env. Timers from a pre-rollback epoch
// are dropped at fire time — the equivalent of the simulator's timer
// invalidation at recovery.
//
//ocsml:loopcontext loop
func (n *Node) SetTimer(d des.Duration, kind, gen int) *des.Timer {
	epoch := n.epoch
	time.AfterFunc(time.Duration(d), func() {
		n.post(func() {
			if n.epoch == epoch {
				n.cfg.Proto.OnTimer(kind, gen)
			}
		})
	})
	return nil
}

// WriteStable implements protocol.Env.
func (n *Node) WriteStable(tag string, bytes int64, done func(start, end des.Time)) {
	n.storageQ.Add(1)
	select {
	case n.storageCh <- storeReq{tag: tag, bytes: bytes, done: done}:
	case <-n.quit:
		// Never enqueued: undo the increment, or StorageQueueLen (read by
		// the protocol's EarlyFlush heuristic) would drift upward on every
		// write racing a shutdown.
		n.storageQ.Add(-1)
	}
}

// WriteStableBlocking implements protocol.Env.
func (n *Node) WriteStableBlocking(tag string, bytes int64, done func(start, end des.Time)) {
	n.StallApp()
	n.WriteStable(tag, bytes, func(start, end des.Time) {
		n.ResumeApp()
		if done != nil {
			done(start, end)
		}
	})
}

// StorageQueueLen implements protocol.Env (this process's local disk).
func (n *Node) StorageQueueLen() int { return int(n.storageQ.Load()) }

// StallApp implements protocol.Env.
//
//ocsml:loopcontext loop
func (n *Node) StallApp() { n.stall++ }

// ResumeApp implements protocol.Env.
//
//ocsml:loopcontext loop
func (n *Node) ResumeApp() {
	if n.stall == 0 {
		panic("transport: ResumeApp without StallApp")
	}
	n.stall--
	if n.stall == 0 {
		for len(n.deferred) > 0 && n.stall == 0 {
			fn := n.deferred[0]
			n.deferred = n.deferred[1:]
			fn()
		}
	}
}

// StallAppFor implements protocol.Env.
//
//ocsml:loopcontext loop
func (n *Node) StallAppFor(d des.Duration) {
	if d <= 0 {
		return
	}
	n.StallApp()
	epoch := n.epoch
	time.AfterFunc(time.Duration(d), func() {
		n.post(func() {
			if n.epoch == epoch {
				n.ResumeApp()
			}
		})
	})
}

// Snapshot implements protocol.Env (no copy-cost modeling here).
func (n *Node) Snapshot() protocol.Snapshot { return n.Peek() }

// Peek implements protocol.Env.
//
//ocsml:loopcontext loop
func (n *Node) Peek() protocol.Snapshot {
	s := protocol.Snapshot{Bytes: 1 << 20, Fold: n.fold, Work: n.work}
	if ra, ok := n.cfg.App.(protocol.RewindableApp); ok {
		s.Progress = ra.Progress()
	}
	return s
}

// DeliverApp implements protocol.Env.
//
//ocsml:loopcontext loop
func (n *Node) DeliverApp(e *protocol.Envelope, pre, then func()) {
	if n.stall > 0 {
		n.deferred = append(n.deferred, func() { n.processApp(e, pre, then) })
		return
	}
	n.processApp(e, pre, then)
}

func (n *Node) processApp(e *protocol.Envelope, pre, then func()) {
	n.cfg.Rec.Record(trace.Event{
		T: n.Now(), Kind: trace.KRecv, Proc: n.cfg.ID, Peer: e.Src, MsgID: e.ID, Seq: -1,
	})
	n.fold = checkpoint.FoldEvent(n.fold, checkpoint.Received, e.Src, e.Dst, e.App.Tag, e.App.Seq)
	if pre != nil {
		pre()
	}
	n.cfg.App.OnMessage(nodeAppCtx{n}, e.Src, e.App)
	if then != nil {
		then()
	}
}

// Checkpoints implements protocol.Env.
func (n *Node) Checkpoints() *checkpoint.ProcStore { return n.cfg.Ckpts.Proc(n.cfg.ID) }

// Note implements protocol.Env.
func (n *Node) Note(kind trace.Kind, seq int) {
	n.cfg.Rec.Record(trace.Event{T: n.Now(), Kind: kind, Proc: n.cfg.ID, Peer: -1, Seq: seq})
}

// Count implements protocol.Env.
func (n *Node) Count(name string, delta int64) { n.count(name, delta) }

// Metrics implements protocol.Env.
func (n *Node) Metrics() *metrics.Registry { return n.cfg.Metrics }

// Draining implements protocol.Env: the real runtime has no drain
// phase; the cluster simply closes nodes when done.
func (n *Node) Draining() bool { return false }

// ---- protocol.AppCtx ----

type nodeAppCtx struct{ *Node }

// Send implements protocol.AppCtx: the application calls it from
// OnMessage/Start callbacks, which the node serializes on the loop.
//
//ocsml:loopcontext loop
func (a nodeAppCtx) Send(dst int, m protocol.AppMsg) {
	n := a.Node
	if dst == n.cfg.ID || dst < 0 || dst >= n.N() {
		panic(fmt.Sprintf("transport: P%d sending to invalid destination %d", n.cfg.ID, dst))
	}
	n.appSeq++
	m.Seq = n.appSeq
	if m.Tag == 0 {
		m.Tag = n.rng.Uint64() | 1
	}
	e := &protocol.Envelope{
		Src: n.cfg.ID, Dst: dst,
		Kind: protocol.KindApp, Bytes: m.Bytes, App: m,
	}
	e.ID = n.idBase | n.idCtr.Add(1)
	n.fold = checkpoint.FoldEvent(n.fold, checkpoint.Sent, n.cfg.ID, dst, m.Tag, m.Seq)
	n.cfg.Rec.Record(trace.Event{
		T: n.Now(), Kind: trace.KSend, Proc: n.cfg.ID, Peer: dst, MsgID: e.ID, Seq: -1,
	})
	n.count("app_msgs", 1)
	n.cfg.Proto.OnAppSend(e)
	n.Send(e)
}

// After implements protocol.AppCtx.
//
//ocsml:loopcontext loop
func (a nodeAppCtx) After(d des.Duration, fn func()) *des.Timer {
	n := a.Node
	epoch := n.epoch
	time.AfterFunc(time.Duration(d), func() {
		n.post(func() {
			if n.epoch != epoch {
				return
			}
			if n.stall > 0 {
				n.deferred = append(n.deferred, fn)
				return
			}
			fn()
		})
	})
	return nil
}

// DoWork implements protocol.AppCtx.
//
//ocsml:loopcontext loop
func (a nodeAppCtx) DoWork(units int64) { a.Node.work += units }

// Done implements protocol.AppCtx.
//
//ocsml:loopcontext loop
func (a nodeAppCtx) Done() {
	n := a.Node
	if n.done.Swap(true) {
		return
	}
	if n.cfg.OnDone != nil {
		n.cfg.OnDone(n.cfg.ID)
	}
}
