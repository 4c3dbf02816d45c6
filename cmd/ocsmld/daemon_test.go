package main

// Multi-OS-process recovery integration test: three real ocsmld daemons
// on localhost TCP with storage GC on, one SIGKILLed mid-run and
// restarted with -recover. The restarted daemon must drive the
// wire-level recovery handshake to completion, the cluster must then
// finalize new global checkpoints past the agreed line, and every
// daemon's GC must have swept its store across the whole episode.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/fsstore"
)

// freeAddrs reserves n distinct localhost ports by binding and closing
// listeners. The window between Close and the daemons' rebind is racy in
// principle, but ephemeral-port reuse on loopback makes it reliable in
// practice.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func buildOcsmld(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ocsmld")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestDaemonClusterRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	bin := buildOcsmld(t)
	datadir := t.TempDir()
	const n = 3
	addrs := freeAddrs(t, n)
	peers := addrs[0] + "," + addrs[1] + "," + addrs[2]

	stdout := make([]*bytes.Buffer, n) // each daemon's JSON exit report
	spawn := func(id int, extra ...string) *exec.Cmd {
		args := append([]string{
			"-id", fmt.Sprint(id), "-peers", peers, "-datadir", datadir,
			"-seed", "17", "-steps", "1000000", // effectively endless
			"-interval", "150ms", "-timeout", "60ms",
			"-gc-interval", "50ms", "-json",
			"-run-for", "120s",
		}, extra...)
		cmd := exec.Command(bin, args...)
		stdout[id] = new(bytes.Buffer)
		cmd.Stdout = stdout[id]
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting P%d: %v", id, err)
		}
		return cmd
	}
	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		procs[i] = spawn(i)
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	// fsstore.LastCompleteSeq reads manifests only — safe to poll a
	// datadir with live writers.
	waitLine := func(want int, timeout time.Duration) int {
		deadline := time.Now().Add(timeout)
		for {
			line, err := fsstore.LastCompleteSeq(datadir, n)
			if err == nil && line >= want {
				return line
			}
			if time.Now().After(deadline) {
				t.Fatalf("durable line %d (err=%v), want >= %d within %v", line, err, want, timeout)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitLine(2, 45*time.Second)

	// Crash P1 hard: no cleanup, no goodbye — only its datadir survives.
	const victim = 1
	if err := procs[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	procs[victim].Wait()
	procs[victim] = nil
	time.Sleep(100 * time.Millisecond) // let in-flight traffic hit the dead socket

	line, err := fsstore.LastCompleteSeq(datadir, n)
	if err != nil {
		t.Fatal(err)
	}

	// Restart the victim with -recover: it coordinates the handshake,
	// the survivors roll back, and the cluster must advance past the
	// line again.
	procs[victim] = spawn(victim, "-recover")
	waitLine(line+1, 45*time.Second)

	// Graceful shutdown: every daemon exits 0 on SIGTERM.
	for i, p := range procs {
		if err := p.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("terminating P%d: %v", i, err)
		}
	}
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			t.Fatalf("P%d exit: %v", i, err)
		}
		procs[i] = nil
	}

	// Every daemon — the restarted victim included — collected garbage
	// below the globally durable line, and no resume replay diverged.
	for i, out := range stdout {
		var rep struct{ Counters map[string]int64 }
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("P%d report: %v\n%s", i, err, out)
		}
		if rep.Counters["fsstore.gc_sweeps"] == 0 {
			t.Fatalf("P%d: no GC sweeps; counters %v", i, rep.Counters)
		}
		if got := rep.Counters["recovery.replay_mismatch"]; got != 0 {
			t.Fatalf("P%d: %d replay mismatches", i, got)
		}
	}

	// Every durable record replay-validates after the whole episode:
	// folding the logged messages over the restored state reproduces the
	// fold recorded at finalization.
	st, err := fsstore.RecoverStore(datadir, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.MaxCompleteSeq(); got < line+1 {
		t.Fatalf("recovered MaxCompleteSeq = %d, want >= %d", got, line+1)
	}
	for p := 0; p < n; p++ {
		for _, r := range st.Proc(p).All() {
			if got := checkpoint.FoldLog(r.Fold, r.Log); got != r.CFEFold {
				t.Fatalf("P%d seq %d: replay fold %#x != CFE fold %#x", p, r.Seq, got, r.CFEFold)
			}
		}
	}
}
