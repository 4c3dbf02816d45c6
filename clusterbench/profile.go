package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// Profile sampling settings of the traced run: block events are sampled
// about once per 10µs spent blocked, one in ten mutex contentions.
const (
	blockRate    = 10_000
	mutexFrac    = 10
	modulePrefix = "ocsml/internal/"
	recordFunc   = "ocsml/internal/trace.(*Recorder).Record"
)

// profiler collects CPU, block and mutex profiles with runtime/pprof
// around single trials: each profiled trial writes its own CPU profile,
// and the block and mutex profiles accumulate only while a trial is
// profiled.
type profiler struct {
	dir  string
	cpus []string // CPU profile files, one per profiled trial
	cpu  *os.File // the open one while a trial is profiled
}

// start profiles until stop; the two bracket one trial.
func (p *profiler) start() error {
	name := filepath.Join(p.dir, fmt.Sprintf("cpu-%d.pprof", len(p.cpus)))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	runtime.SetBlockProfileRate(blockRate)
	runtime.SetMutexProfileFraction(mutexFrac)
	p.cpu, p.cpus = f, append(p.cpus, name)
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	runtime.SetBlockProfileRate(0)
	runtime.SetMutexProfileFraction(0)
	err := p.cpu.Close()
	p.cpu = nil
	return err
}

// writeWaits writes the block and mutex profiles gathered so far.
func (p *profiler) writeWaits() error {
	for _, name := range []string{"block", "mutex"} {
		f, err := os.Create(filepath.Join(p.dir, name+".pprof"))
		if err != nil {
			return err
		}
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// attribution is seconds per module: CPU from the CPU profiles, lock
// contention from the mutex profile and the block profile's lock waits,
// and idle waiting (channel receives, selects, WaitGroup and Cond waits)
// from the rest of the block profile.
type attribution struct {
	cpu, wait, idle map[string]float64
	recordCPU       float64 // CPU whose innermost repo frame is Recorder.Record
}

// attribute writes the wait profiles, parses every profile with
// `go tool pprof -traces` and charges each sample to the innermost
// ocsml/internal/<module> frame of its stack ("runtime" when the stack
// has none). Waiting samples taken on the benchmark's own goroutines are
// left out: they are the benchmark waiting for the cluster, not a layer
// waiting for work.
func (p *profiler) attribute() (attribution, error) {
	a := attribution{cpu: map[string]float64{}, wait: map[string]float64{}, idle: map[string]float64{}}
	if err := p.writeWaits(); err != nil {
		return a, err
	}
	for _, kind := range []string{"cpu", "block", "mutex"} {
		files := p.cpus
		if kind != "cpu" {
			files = []string{filepath.Join(p.dir, kind+".pprof")}
		}
		out, err := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...).Output()
		if err != nil {
			return a, fmt.Errorf("go tool pprof %s profile: %w", kind, err)
		}
		samples, err := parseTraces(string(out))
		if err != nil {
			return a, fmt.Errorf("%s profile: %w", kind, err)
		}
		for _, s := range samples {
			mod, fn := innermostModule(s.frames)
			switch {
			case kind == "cpu":
				a.cpu[mod] += s.seconds
				if fn == recordFunc {
					a.recordCPU += s.seconds
				}
			case hasBenchFrame(s.frames):
				// the benchmark waiting for the cluster
			case kind == "mutex" || lockWait(s.frames):
				a.wait[mod] += s.seconds
			default:
				a.idle[mod] += s.seconds
			}
		}
	}
	return a, nil
}

type sample struct {
	seconds float64
	frames  []string // innermost first
}

// parseTraces reads `pprof -traces` output: a header, then one block per
// stack, separated by dashed lines, whose first line carries the
// sample's value before the innermost frame.
func parseTraces(out string) ([]sample, error) {
	var samples []sample
	var cur *sample
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || (cur == nil && !strings.HasPrefix(line, " ")) {
			continue // header lines start in column 0
		}
		if cur == nil {
			fields := strings.Fields(trimmed)
			v, err := parseValue(fields[0])
			if err != nil {
				return nil, err
			}
			samples = append(samples, sample{seconds: v})
			cur = &samples[len(samples)-1]
			trimmed = strings.TrimSpace(strings.TrimPrefix(trimmed, fields[0]))
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(trimmed, " (inline)"))
	}
	return samples, nil
}

// parseValue reads a pprof duration such as 160ms, 1.25s or 2.50mins.
func parseValue(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return 0, fmt.Errorf("unparsable sample value %q", s)
}

func innermostModule(frames []string) (mod, fn string) {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			end := strings.IndexAny(rest, "./")
			if end < 0 {
				end = len(rest)
			}
			return rest[:end], f
		}
	}
	return "runtime", ""
}

// lockWait reports whether a block-profile stack waits for a sync.Mutex
// or RWMutex, as opposed to a channel, select, WaitGroup or Cond.
func lockWait(frames []string) bool {
	for _, f := range frames {
		if strings.Contains(f, "Mutex).") {
			return true
		}
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "sync.") && !strings.HasPrefix(f, "internal/sync.") {
			return false
		}
	}
	return false
}

func hasBenchFrame(frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return true
		}
	}
	return false
}
