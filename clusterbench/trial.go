package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/trace"
	"ocsml/internal/transport"
	"ocsml/internal/workload"
)

// The cluster under test is the one `ocsmld -spawn-all` runs, with the
// flags of the ROADMAP baseline: N=4 nodes over localhost TCP, the
// reliable middleware on, fsstore with GC, and ocsmld's default modeled
// stable-storage bandwidth.
const (
	nodes       = 4
	interval    = 50 * time.Millisecond
	convTimeout = 30 * time.Millisecond
	gcInterval  = 200 * time.Millisecond
	writeBW     = 64 << 20
	drain       = 200 * time.Millisecond
	pollEvery   = 2 * time.Millisecond
	// advanceWait bounds how long a recovered cluster may take to make a
	// line above the recovery line durable everywhere.
	advanceWait = 10 * time.Second
)

// spec is one workload: the application traffic of a trial and the
// kill/Recover cycles that follow it.
type spec struct {
	wl workload.Config
	// cycles is the number of kill/Recover cycles per trial; the victim
	// rotates over all processes. They run after the traffic met its
	// quota, on the quiescent cluster, each recovering to a line taken
	// after every process finished, so no application message is in
	// flight at the line: the TCP runtime does not re-send the channel
	// state at a recovery line, so a recovery under load loses messages.
	cycles int
}

var specs = map[string]spec{
	// Closed loop: each superstep waits for both grid neighbours' halos.
	"stencil": {wl: workload.Config{Pattern: workload.BSPStencil, Steps: 3000, MsgBytes: 256}, cycles: 3},
	// Timer-paced uniform traffic at about half the stencil ceiling, with
	// 4 KiB messages so selective logs are large.
	"recover": {wl: workload.Config{Pattern: workload.UniformRandom, Steps: 3000,
		Think: des.Duration(100 * time.Microsecond), MsgBytes: 4 << 10}, cycles: nodes},
}

// round is one global checkpoint S_k as the durability poller saw it.
type round struct {
	seq                       int
	taken, finalized, durable des.Time
	// stable is the last member's StableAt (0 until every member has one).
	stable      des.Time
	logBytes    int64
	haveRecords bool
}

// trialResult is everything one trial measured.
type trialResult struct {
	setup    float64   // s, NewCluster until every peer link is connected
	rate     float64   // app msgs processed per second per node, rolled back or not
	lat      []float64 // µs, send to processing
	commit   []float64 // ms, earliest TakenAt to durable everywhere
	finalize []float64 // ms, earliest TakenAt to last FinalizedAt
	stable   []float64 // ms, last StableAt minus durable-everywhere time
	logBytes []float64 // selective-log payload bytes per round
	verify   float64   // CPU s, CutAt + CheckCut over every durable round
	recovery []float64 // ms, wall time of Cluster.Recover
	resume   []float64 // ms, Recover return until a higher line is durable
	queue    []float64 // writer queue length samples
	heapPeak float64   // MB

	// attempted counts the app messages of the final history; failed
	// counts those it never processed, lost those among them that were
	// processed once but had the processing undone by a rollback.
	attempted, failed int64
	lost              int64
	rounds            int
	events            int
	records           int
	counters          map[string]int64
	reg               map[string]int64 // fsstore registry families summed over procs
	wire              transport.MeshStats
	deliveries        int64 // app message processing events, rolled back or not
	allocBytes        float64
	gcCPU             float64
	read              readTimes
}

// trial drives one cluster from NewCluster to Stop. The poller owns
// durableAt, next, rounds, unstable, queue, heapPeak and polls until it
// exits.
type trial struct {
	sp spec
	c  *transport.Cluster

	durableAt map[int]des.Time
	next      int
	rounds    []round
	// unstable indexes the rounds whose members' StableAt the poller is
	// still waiting for.
	unstable []int
	queue    []float64
	heapPeak uint64
	polls    int

	// lines are the agreed recovery lines, one per Recover, in order.
	lines []int
	// dead sums the wire counters of killed incarnations; a restart
	// replaces a node and its mesh.
	dead transport.MeshStats
}

func clusterConfig(sp spec, seed int64, dir string) transport.ClusterConfig {
	opt := core.DefaultOptions()
	opt.Interval = des.Duration(interval)
	opt.Timeout = des.Duration(convTimeout)
	return transport.ClusterConfig{
		N: nodes, Seed: seed, Datadir: dir, Opt: opt, Reliable: true,
		Workload: sp.wl, WriteBandwidth: writeBW, Timeout: time.Minute, Drain: drain,
		FSOptions: fsstore.DefaultOptions(), GCInterval: gcInterval,
	}
}

// runTrial runs one trial in a fresh datadir under workdir.
func runTrial(sp spec, seed int64, workdir string, victim0 int) (*trialResult, error) {
	dir, err := os.MkdirTemp(workdir, "trial-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &trial{sp: sp, durableAt: map[int]des.Time{}, next: 1}
	res := &trialResult{}

	rtBefore := readRuntime()
	start := now()
	c, err := transport.NewCluster(clusterConfig(sp, seed, dir))
	if err != nil {
		return nil, err
	}
	t.c = c
	c.Start()
	stopped := false
	defer func() {
		if !stopped {
			c.Stop()
		}
	}()
	for !allConnected(c) {
		if since(start) > advanceWait {
			return nil, fmt.Errorf("mesh did not connect within %v", advanceWait)
		}
		time.Sleep(100 * time.Microsecond)
	}
	res.setup = since(start).Seconds()

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t.poll(stopPoll)
	}()
	trafficEnd, runErr := t.drive(res, victim0)
	if runErr == nil {
		time.Sleep(drain)
	}
	close(stopPoll)
	pollWG.Wait()
	c.Stop()
	stopped = true
	rtAfter := readRuntime()
	if runErr != nil {
		return res, runErr
	}
	res.allocBytes = rtAfter.allocBytes - rtBefore.allocBytes
	res.gcCPU = rtAfter.gcCPU - rtBefore.gcCPU
	if err := t.analyze(res, trafficEnd); err != nil {
		return res, err
	}
	rp, err := timeReadPath(dir)
	if err != nil {
		return res, err
	}
	res.read = rp
	return res, nil
}

// drive runs the traffic to its quota fault-free, then the kill/Recover
// cycles. It returns when the quota completed: sends after it, and
// rounds taken after it (the cycles'), are not measured.
func (t *trial) drive(res *trialResult, victim int) (des.Time, error) {
	c := t.c
	if err := c.WaitDone(time.Minute); err != nil {
		return 0, err
	}
	doneAt := c.Node(0).Now()
	if err := t.waitFor(func() bool { return t.lineAfter(doneAt) }); err != nil {
		return 0, fmt.Errorf("no durable line after the workload completed: %w", err)
	}
	for i := 0; i < t.sp.cycles; i++ {
		if err := t.cycle(res, (victim+i)%nodes); err != nil {
			return 0, err
		}
	}
	return doneAt, nil
}

// cycle kills one process, recovers it and waits for the cluster to
// make a line above the recovery line durable everywhere.
func (t *trial) cycle(res *trialResult, victim int) error {
	before := t.minDurable()
	t.c.Kill(victim)
	t.dead = addStats(t.dead, t.c.Node(victim).Mesh().Stats())
	start := now()
	line, err := t.c.Recover(victim)
	took := since(start)
	res.attempted++
	if err != nil {
		res.failed++
		return fmt.Errorf("Recover(P%d): %w", victim, err)
	}
	t.lines = append(t.lines, line)
	if line < before {
		return fmt.Errorf("Recover(P%d) agreed line %d below the line %d durable before the kill", victim, line, before)
	}
	start = now()
	if err := t.waitFor(func() bool { return t.minDurable() > line }); err != nil {
		return fmt.Errorf("cluster did not advance past recovery line %d: %w", line, err)
	}
	res.recovery = append(res.recovery, ms(took))
	res.resume = append(res.resume, ms(since(start)))
	return nil
}

func (t *trial) waitFor(cond func() bool) error {
	deadline := now().Add(advanceWait)
	for !cond() {
		if now().After(deadline) {
			return fmt.Errorf("timed out after %v", advanceWait)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// minDurable is the highest line every store has durably finalized.
func (t *trial) minDurable() int {
	m := math.MaxInt
	for i := 0; i < nodes; i++ {
		if l := t.c.FS(i).LastSeq(); l < m {
			m = l
		}
	}
	return m
}

// lineAfter reports whether the durable line's tentative checkpoints
// were all taken after at.
func (t *trial) lineAfter(at des.Time) bool {
	k := t.minDurable()
	if k < 1 {
		return false
	}
	for i := 0; i < nodes; i++ {
		r, ok := t.c.Ckpts.Proc(i).Get(k)
		if !ok || r.TakenAt <= at {
			return false
		}
	}
	return true
}

func allConnected(c *transport.Cluster) bool {
	for _, n := range c.Nodes() {
		for _, p := range n.Mesh().Peers() {
			if !p.Connected {
				return false
			}
		}
	}
	return true
}

// poll is the fixed-period durability poller: it stamps the moment each
// S_k becomes durable in every store, and samples the writer queues and
// the Go heap.
func (t *trial) poll(stop <-chan struct{}) {
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		line := t.minDurable()
		at := t.c.Node(0).Now()
		for ; t.next <= line; t.next++ {
			t.noteDurable(t.next, at)
		}
		t.noteStable()
		for _, n := range t.c.Nodes() {
			for _, p := range n.Mesh().Peers() {
				t.queue = append(t.queue, float64(p.QueueLen))
			}
		}
		t.polls++
		if t.polls%5 == 0 {
			metrics.Read(heap)
			t.heapPeak = max(t.heapPeak, heap[0].Value.Uint64())
		}
	}
}

// noteDurable records S_k with its members' checkpoint times. A line is
// never rolled back once durable everywhere (the agreed recovery line is
// the highest such line), so each k is stamped once.
func (t *trial) noteDurable(k int, at des.Time) {
	r := round{seq: k, durable: at, haveRecords: true}
	for i := 0; i < nodes; i++ {
		rec, ok := t.c.Ckpts.Proc(i).Get(k)
		if !ok {
			r.haveRecords = false // P_i's view is being reloaded by a restart
			break
		}
		if i == 0 || rec.TakenAt < r.taken {
			r.taken = rec.TakenAt
		}
		if rec.FinalizedAt > r.finalized {
			r.finalized = rec.FinalizedAt
		}
		r.logBytes += rec.LogBytes()
	}
	t.durableAt[k] = at
	if r.haveRecords {
		t.unstable = append(t.unstable, len(t.rounds))
	}
	t.rounds = append(t.rounds, r)
}

// noteStable stamps each waiting round with its members' last StableAt
// once every member has one. The records are read while they still
// exist: a restart reloads its victim's records from disk, where GC may
// already have removed them.
func (t *trial) noteStable() {
	waiting := t.unstable[:0]
	for _, idx := range t.unstable {
		r := &t.rounds[idx]
		var last des.Time
		done := true
		for i := 0; i < nodes; i++ {
			rec, ok := t.c.Ckpts.Proc(i).Get(r.seq)
			if !ok {
				last = 0 // reloaded by a restart: give up on this round
				break
			}
			if rec.StableAt == 0 {
				done = false
				break
			}
			last = max(last, rec.StableAt)
		}
		switch {
		case !done:
			waiting = append(waiting, idx)
		case last != 0:
			r.stable = last
		}
	}
	t.unstable = waiting
}

// analyze derives the trial's metrics from the trace, the checkpoint
// records and the registry, and runs the correctness gate.
func (t *trial) analyze(res *trialResult, trafficEnd des.Time) error {
	c := t.c
	res.counters = c.Counters()
	if n := res.counters["recovery.replay_mismatch"]; n != 0 {
		return fmt.Errorf("recovery.replay_mismatch = %d", n)
	}
	res.wire = t.dead
	for _, n := range c.Nodes() {
		res.wire = addStats(res.wire, n.Mesh().Stats())
	}
	res.reg = map[string]int64{}
	for _, fam := range []string{
		"ocsml_fsstore_fsyncs_total", "ocsml_fsstore_bytes_written_total",
		"ocsml_fsstore_gc_removed_total",
	} {
		for p := 0; p < nodes; p++ {
			v, _ := c.Metrics.Value(fam, strconv.Itoa(p))
			res.reg[fam] += v
		}
	}

	events := c.Rec.Events()
	res.events = len(events)
	for p := 0; p < nodes; p++ {
		res.records += c.Ckpts.Proc(p).Len()
	}
	if err := t.pairMessages(events, trafficEnd, res); err != nil {
		return err
	}

	seqs := make([]int, 0, len(t.durableAt))
	for k := range t.durableAt {
		seqs = append(seqs, k)
	}
	sort.Ints(seqs)
	if len(seqs) == 0 {
		return fmt.Errorf("no global checkpoint became durable")
	}
	res.rounds = len(seqs)
	for _, r := range t.rounds {
		if !r.haveRecords || r.taken >= trafficEnd {
			continue
		}
		res.commit = append(res.commit, ms(time.Duration(r.durable-r.taken)))
		res.finalize = append(res.finalize, ms(time.Duration(r.finalized-r.taken)))
		res.logBytes = append(res.logBytes, float64(r.logBytes))
		if r.stable != 0 {
			res.stable = append(res.stable, ms(time.Duration(r.stable-r.durable)))
		}
	}
	res.queue = t.queue
	res.heapPeak = float64(t.heapPeak) / (1 << 20)

	cpu := cpuTime()
	for _, k := range seqs {
		cut, ok := c.Rec.CutAt(nodes, trace.KFinalize, k)
		if !ok {
			return fmt.Errorf("durable S_%d has no complete finalize cut in the trace", k)
		}
		if rep := c.Rec.CheckCut(cut); !rep.Consistent() {
			return fmt.Errorf("durable S_%d is inconsistent: %d orphan(s)", k, len(rep.Orphans))
		}
	}
	res.verify = (cpuTime() - cpu).Seconds()
	return nil
}

type span struct{ lo, hi int64 }

// pairMessages pairs every application send with its processing by
// MsgID. Sends a rollback undid (between the sender's finalize of the
// recovery line and its rollback or crash) are not part of the final
// history and are not attempted, nor are sends after trafficEnd; every
// other send must be processed in the final history by the end of the
// trial, or it failed. Latency is measured to that processing.
func (t *trial) pairMessages(events []trace.Event, trafficEnd des.Time, res *trialResult) error {
	undone := make([][]span, nodes)
	lastFin := make([]map[int]int64, nodes)
	for p := range lastFin {
		lastFin[p] = map[int]int64{}
	}
	fails := 0
	for _, e := range events {
		switch e.Kind {
		case trace.KFinalize:
			lastFin[e.Proc][e.Seq] = e.GSeq
		case trace.KFail:
			if fails >= len(t.lines) {
				return fmt.Errorf("trace has a crash of P%d the benchmark did not recover", e.Proc)
			}
			line := t.lines[fails]
			fails++
			undone[e.Proc] = append(undone[e.Proc], span{lastFin[e.Proc][line], e.GSeq})
		case trace.KRestore:
			undone[e.Proc] = append(undone[e.Proc], span{lastFin[e.Proc][e.Seq], e.GSeq})
		}
	}
	isUndone := func(p int, g int64) bool {
		for _, s := range undone[p] {
			if g > s.lo && g < s.hi {
				return true
			}
		}
		return false
	}

	type msg struct {
		sendT, recvT, finT des.Time
		sent, undone       bool
		recv, recvFin      bool
	}
	msgs := make(map[int64]*msg, len(events)/2)
	get := func(id int64) *msg {
		m := msgs[id]
		if m == nil {
			m = &msg{}
			msgs[id] = m
		}
		return m
	}
	for _, e := range events {
		switch e.Kind {
		case trace.KSend:
			m := get(e.MsgID)
			m.sent, m.sendT, m.undone = true, e.T, isUndone(e.Proc, e.GSeq)
		case trace.KRecv:
			res.deliveries++
			m := get(e.MsgID)
			if !m.recv {
				m.recv, m.recvT = true, e.T
			}
			if !m.recvFin && !isUndone(e.Proc, e.GSeq) {
				m.recvFin, m.finT = true, e.T
			}
		}
	}
	first, last := des.Time(math.MaxInt64), des.Time(0)
	var window int64 // processing events of messages sent in the measured window
	for _, m := range msgs {
		if !m.sent || m.sendT >= trafficEnd {
			continue
		}
		if m.recv {
			window++
			first = min(first, m.sendT)
			last = max(last, m.recvT)
		}
		if m.undone {
			continue
		}
		res.attempted++
		if !m.recvFin {
			res.failed++
			if m.recv {
				res.lost++
			}
			continue
		}
		res.lat = append(res.lat, float64(m.finT-m.sendT)/float64(des.Microsecond))
	}
	if window == 0 || last <= first {
		return fmt.Errorf("no application message was processed")
	}
	res.rate = float64(window) / time.Duration(last-first).Seconds() / nodes
	return nil
}

// readTimes is the recovery read path, timed on a stopped trial's
// datadir: per-store means of each fsstore call, and the log replay.
type readTimes struct {
	intersect, open, load, truncate float64 // ms per store (intersect: per call)
	replay                          float64 // ms per record
	records                         int
}

// timeReadPath times, per store, the calls a recovering process makes:
// the manifest intersection, OpenWith, Load of every durable record,
// FoldLog replay of each (checked against CFEFold) and TruncateAfter the
// line.
func timeReadPath(dir string) (readTimes, error) {
	var rt readTimes
	start := now()
	line, err := fsstore.LastCompleteSeq(dir, nodes)
	rt.intersect = ms(since(start))
	if err != nil {
		return rt, err
	}
	var replay time.Duration
	for p := 0; p < nodes; p++ {
		start = now()
		s, err := fsstore.OpenWith(dir, p, nodes, fsstore.DefaultOptions())
		rt.open += ms(since(start))
		if err != nil {
			return rt, err
		}
		seqs := s.Manifest().Seqs
		start = now()
		recs := make([]checkpoint.Record, 0, len(seqs))
		for _, seq := range seqs {
			r, err := s.Load(seq)
			if err != nil {
				return rt, fmt.Errorf("P%d Load(%d): %w", p, seq, err)
			}
			recs = append(recs, r)
		}
		rt.load += ms(since(start))
		for _, r := range recs {
			start = now()
			fold := checkpoint.FoldLog(r.Fold, r.Log)
			replay += since(start)
			if fold != r.CFEFold {
				return rt, fmt.Errorf("P%d seq %d: FoldLog %#x != CFEFold %#x", p, r.Seq, fold, r.CFEFold)
			}
		}
		rt.records += len(recs)
		start = now()
		if err := s.TruncateAfter(line); err != nil {
			return rt, err
		}
		rt.truncate += ms(since(start))
	}
	rt.open /= nodes
	rt.load /= nodes
	rt.truncate /= nodes
	rt.replay = ratio(ms(replay), float64(rt.records))
	return rt, nil
}

type runtimeStats struct{ allocBytes, gcCPU float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{allocBytes: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64()}
}

func addStats(a, b transport.MeshStats) transport.MeshStats {
	a.FramesSent += b.FramesSent
	a.FramesRecv += b.FramesRecv
	a.BytesSent += b.BytesSent
	a.BytesRecv += b.BytesRecv
	a.Reconnects += b.Reconnects
	a.Dropped += b.Dropped
	return a
}

// cpuTime is the process's user and system CPU time. Verification runs
// after the cluster stopped, so the process's CPU is the checker's (and
// its garbage collection's); unlike wall time, it does not grow when
// the host's other tenants take the CPU away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
