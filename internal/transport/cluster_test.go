package transport

import (
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/workload"
)

// testClusterConfig is a 4-process localhost cluster tuned for wall
// clock: 150ms checkpoint interval, fast convergence timeout, a
// workload short enough to finish in a couple of seconds but long
// enough to span several checkpoint rounds.
func testClusterConfig(datadir string, seed int64) ClusterConfig {
	return ClusterConfig{
		N:       4,
		Seed:    seed,
		Datadir: datadir,
		Opt: core.Options{
			Interval: 150 * des.Duration(time.Millisecond),
			Timeout:  60 * des.Duration(time.Millisecond),
			SkipREQ:  true,
		},
		Reliable: true,
		Workload: workload.Config{
			Pattern:  workload.UniformRandom,
			Steps:    120,
			Think:    4 * des.Duration(time.Millisecond),
			MsgBytes: 256,
		},
		WriteBandwidth: 64 << 20,
		Timeout:        30 * time.Second,
		Drain:          600 * time.Millisecond,
	}
}

// validateDisk recovers the on-disk stores and checks (a) every process
// has the last complete sequence durable, and (b) every durable record
// passes replay validation: restoring CT and folding the logged
// messages reproduces the CFE state hash.
func validateDisk(t *testing.T, datadir string, n, wantSeq int) {
	t.Helper()
	last, err := fsstore.LastCompleteSeq(datadir, n)
	if err != nil {
		t.Fatalf("LastCompleteSeq: %v", err)
	}
	if last < wantSeq {
		t.Fatalf("durable S_k = %d, want >= %d", last, wantSeq)
	}
	st, err := fsstore.RecoverStore(datadir, n)
	if err != nil {
		t.Fatalf("RecoverStore: %v", err)
	}
	for p := 0; p < n; p++ {
		rec, ok := st.Proc(p).Get(last)
		if !ok {
			t.Fatalf("P%d: recovered store missing seq %d", p, last)
		}
		for _, r := range st.Proc(p).All() {
			if got := checkpoint.FoldLog(r.Fold, r.Log); got != r.CFEFold {
				t.Fatalf("P%d seq %d: replay fold %#x != CFE fold %#x", p, r.Seq, got, r.CFEFold)
			}
		}
		_ = rec
	}
}

// TestClusterRun runs a cluster start to finish on two inputs: steady
// uniform traffic, and a quiet run with almost no application messages,
// whose checkpoint rounds must converge through CK_* control rounds
// (paper §3.5.1) — CK_REQ traffic instead of piggybacks.
func TestClusterRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	for _, tc := range []struct {
		name    string
		adjust  func(*ClusterConfig)
		wantCtl string // a control tag the run must send
	}{
		{name: "uniform", adjust: func(*ClusterConfig) {}},
		{name: "quiet", wantCtl: "ctl.CK_REQ", adjust: func(cfg *ClusterConfig) {
			cfg.Opt = core.Options{
				Interval:    30 * des.Millisecond,
				Timeout:     15 * des.Millisecond,
				SuppressBGN: true,
				SkipREQ:     true,
			}
			cfg.Workload.Steps = 4
			cfg.Workload.Think = 40 * des.Millisecond
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testClusterConfig(dir, 7)
			tc.adjust(&cfg)
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			rep, err := c.Report()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Completed {
				t.Fatal("workload did not complete")
			}
			if rep.GlobalCheckpoints < 2 {
				t.Fatalf("global checkpoints = %d, want >= 2 (seqs %v)", rep.GlobalCheckpoints, rep.ConsistentSeqs)
			}
			if rep.AppMessages == 0 || rep.PiggybackBytes == 0 {
				t.Fatalf("wire accounting empty: app=%d piggyback=%d", rep.AppMessages, rep.PiggybackBytes)
			}
			if rep.PiggybackBytesPerMsg <= 0 {
				t.Fatalf("piggyback bytes/msg = %v", rep.PiggybackBytesPerMsg)
			}
			if rep.FramesSent == 0 || rep.FrameBytes == 0 {
				t.Fatalf("mesh accounting empty: frames=%d bytes=%d", rep.FramesSent, rep.FrameBytes)
			}
			if c.Counter("wire.decode_errors") != 0 {
				t.Fatalf("decode errors: %d", c.Counter("wire.decode_errors"))
			}
			if tc.wantCtl != "" && c.Counter(tc.wantCtl) == 0 {
				t.Fatalf("%s = 0: expected control rounds on a %s run", tc.wantCtl, tc.name)
			}
			validateDisk(t, dir, cfg.N, 1)
		})
	}
}

// TestClusterRecoverAfterQuota: a rollback to a line taken after every
// process met its quota restores an application that is already done.
// The restore re-signals completion synchronously, inside the rollback,
// and that signal must stick — WaitDone has to return after Recover.
func TestClusterRecoverAfterQuota(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 5)
	cfg.Workload.Steps = 40
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitDone(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A few rounds past completion: every member of the line recorded
	// its finished quota.
	l0, err := fsstore.LastCompleteSeq(dir, cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	want := max(l0, 0) + 3
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= want
	})
	c.Kill(2)
	line, err := c.Recover(2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if line < want {
		t.Fatalf("recovery line %d, want >= %d", line, want)
	}
	if err := c.WaitDone(5 * time.Second); err != nil {
		t.Fatalf("after recovering to line %d: %v", line, err)
	}
}

// TestClusterKillRestart is the crash-recovery integration test: a
// 4-process TCP cluster with file-backed storage reaches at least two
// durable global checkpoints, one process is killed, the survivors roll
// back to the last durable recovery line, and the victim restarts from
// its on-disk manifest. The cluster must then advance past the line
// again, and every durable record must replay-validate.
func TestClusterKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 11)
	cfg.Workload.Steps = 100000 // effectively endless; the test stops the cluster
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Let the cluster commit at least two global checkpoints to disk.
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= 2
	})

	const victim = 1
	c.Kill(victim)
	time.Sleep(50 * time.Millisecond) // let in-flight traffic hit the dead socket

	line, err := c.Recover(victim)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if line < 2 {
		t.Fatalf("recovery line %d, want >= 2", line)
	}

	// The restarted cluster must finalize new checkpoints beyond the line.
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= line+1
	})
	c.Stop()

	if got := c.Counter("recovery.failures"); got != 1 {
		t.Fatalf("failures counter = %d", got)
	}
	if got := c.Counter("recovery.restarts"); got != 1 {
		t.Fatalf("restarts counter = %d", got)
	}
	if got := c.Counter("recovery.coordinated"); got != 1 {
		t.Fatalf("coordinated counter = %d", got)
	}
	if got := c.Counter("recovery.recoveries"); got != 1 {
		t.Fatalf("recoveries counter = %d", got)
	}
	if got := c.Counter("recovery.rollbacks"); got != int64(cfg.N-1) {
		t.Fatalf("rollbacks counter = %d, want %d", got, cfg.N-1)
	}
	validateDisk(t, dir, cfg.N, line+1)

	// The in-memory store must agree with disk about the new line.
	if max := c.Ckpts.MaxCompleteSeq(); max < line+1 {
		t.Fatalf("in-memory complete seq %d, want >= %d", max, line+1)
	}
}
