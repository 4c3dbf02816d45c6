// Command clusterbench is the repository's end-to-end benchmark. It runs
// the in-process TCP cluster of `ocsmld -spawn-all` (internal/transport)
// through repeated trials of one workload and measures it from outside,
// through public APIs only: it times its own calls into the cluster and
// reads the metric registry, the trace recorder, the checkpoint records
// and the durable stores.
//
//	bash clusterbench/run.sh --workload stencil --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// each trial untraced and profiled, in alternating order, and prints the
// per-layer table. The last line of standard output is a JSON object with
// the keys correct, attempted, failed and metrics. Every run checks the
// correctness gate (every durable S_k consistent; in recovery cycles,
// agreed lines at or above the line durable before the kill, progress
// past them, and exact log replay) and exits 1 on a violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload: stencil | recover")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured time of the run")
	traced := flag.Int("trace", 0, "1 runs the profiled per-layer run instead of the end-to-end run")
	workdir := flag.String("workdir", ".bench_build", "directory for trial datadirs and profiles")
	flag.Parse()
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "clusterbench: %v\n", err)
		os.Exit(1)
	}
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, budget time.Duration, traced bool, workdir string) error {
	sp, ok := specs[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want stencil or recover)", name)
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var results []*trialResult
	var vals map[string]float64
	if traced {
		results, vals, err = layerRun(sp, seed, budget, dir)
	} else {
		results, err = runTrials(sp, seed, budget, dir)
		if err == nil {
			vals = endToEnd(results)
		}
	}
	out := output{Correct: err == nil, Metrics: map[string]metric{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	if err != nil {
		if perr := printJSON(out); perr != nil {
			return perr
		}
		return fmt.Errorf("correctness gate failed: %w", err)
	}
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value (%v)", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	printTable(name, seed, traced, results, defs, vals, out)
	return printJSON(out)
}

func printJSON(out output) error {
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runTrials runs trials until the budget is spent (at least two).
func runTrials(sp spec, seed int64, budget time.Duration, dir string) ([]*trialResult, error) {
	var out []*trialResult
	start := now()
	for i := 0; i < 2 || since(start) < budget; i++ {
		r, err := runOne(sp, seed, i, dir, "")
		if r != nil {
			out = append(out, r)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// runOne runs trial i of a run. Trial i uses seed<<16+i, so one --seed
// always replays the same inputs.
func runOne(sp spec, seed int64, i int, dir, tag string) (*trialResult, error) {
	r, err := runTrial(sp, seed<<16+int64(i), dir, int(seed+int64(i))%nodes)
	if r != nil {
		fmt.Fprintf(os.Stderr, "trial %2d%s: %8.0f msgs/s/node  latency p50 %6.1fus p90 %6.1fus p99 %8.1fus  verify %.3f cpu-s  setup %.4fs\n",
			i, tag, r.rate, quantile(r.lat, 0.5), quantile(r.lat, 0.9), quantile(r.lat, 0.99), r.verify, r.setup)
	}
	if err != nil {
		return r, fmt.Errorf("trial %d%s: %w", i, tag, err)
	}
	return r, nil
}

// def names one reported metric. base and moves document a per-layer
// metric: the denominator of a ratio, and the end-to-end metric and
// workload the layer is predicted to move.
type def struct {
	name, unit  string
	base, moves string
}

var e2eMetrics = []def{
	{name: "setup_s", unit: "s"},
	{name: "app_msgs_per_s", unit: "1/s"},
	{name: "latency_p50_us", unit: "us"},
	{name: "latency_p90_us", unit: "us"},
	{name: "commit_p50_ms", unit: "ms"},
	{name: "commit_p90_ms", unit: "ms"},
	{name: "recovery_p50_ms", unit: "ms"},
	{name: "recovery_p90_ms", unit: "ms"},
	{name: "resume_p50_ms", unit: "ms"},
	{name: "heap_peak_mb", unit: "MB"},
}

// endToEnd reduces the trials to the reported metrics. Per-trial values
// (rate, latency quantiles, heap peak, setup) are reduced by their
// median, so a burst of CPU steal from a neighbouring VM that slows a few
// trials does not move the run's figure; commit, recovery and resume
// samples are too few per trial and are pooled.
func endToEnd(rs []*trialResult) map[string]float64 {
	var setup, rate, heap, p50, p90, commit, rec, resume []float64
	for _, r := range rs {
		setup = append(setup, r.setup)
		rate = append(rate, r.rate)
		heap = append(heap, r.heapPeak)
		p50 = append(p50, quantile(r.lat, 0.5))
		p90 = append(p90, quantile(r.lat, 0.9))
		commit = append(commit, r.commit...)
		rec = append(rec, r.recovery...)
		resume = append(resume, r.resume...)
	}
	return map[string]float64{
		"setup_s":         median(setup),
		"app_msgs_per_s":  median(rate),
		"latency_p50_us":  median(p50),
		"latency_p90_us":  median(p90),
		"commit_p50_ms":   quantile(commit, 0.5),
		"commit_p90_ms":   quantile(commit, 0.9),
		"recovery_p50_ms": quantile(rec, 0.5),
		"recovery_p90_ms": quantile(rec, 0.9),
		"resume_p50_ms":   quantile(resume, 0.5),
		"heap_peak_mb":    median(heap),
	}
}

// layerModules are the modules whose CPU and wait time the traced run
// attributes; "runtime" collects samples with no repository frame.
var layerModules = []string{"transport", "wire", "core", "reliable", "fsstore", "checkpoint", "trace", "runtime"}

var layerMetrics = func() []def {
	ds := []def{
		{"transport.frames_per_app_msg", "frames/msg", "app msgs sent", "app_msgs_per_s on stencil"},
		{"transport.bytes_per_app_msg", "B/msg", "app msgs sent", "app_msgs_per_s on stencil"},
		{"transport.writer_queue_p99", "frames", "queue samples every 2ms", "latency_p90_us on recover"},
		{"transport.frames_dropped", "count", "per trial", "latency_p90_us on recover"},
		{"transport.reconnects", "count", "per trial", "recovery_p50_ms on recover"},
		{"transport.mesh_ceiling_msgs_per_s", "1/s", "bare 2-process Mesh", "app_msgs_per_s on stencil"},
		{"transport.coordinate_ms", "ms", "recovery_p50 minus read path", "recovery_p50_ms on recover"},
		{"transport.rollback_lost_msgs", "count", "per trial", "error_rate (channel state not re-sent)"},
		{"transport.rb_rebroadcasts_per_recovery", "frames/recovery", "Recover calls", "recovery_p50_ms on recover"},
		{"wire.encode_ns_per_msg", "ns", "EncodeFrame+AppendFrame", "app_msgs_per_s on stencil; none on recover"},
		{"wire.decode_ns_per_msg", "ns", "DecodeOwned", "app_msgs_per_s on stencil; none on recover"},
		{"wire.allocs_per_msg", "allocs/msg", "encode+decode", "app_msgs_per_s on stencil; none on recover"},
		{"wire.piggyback_bytes_per_msg", "B/msg", "app frames sent", "app_msgs_per_s on stencil"},
		{"core.finalize_p50_ms", "ms", "durable rounds", "commit_p50_ms on recover"},
		{"core.stable_lag_p50_ms", "ms", "durable rounds", "commit_p50_ms on recover"},
		{"core.ctl_msgs_per_round", "msgs/round", "durable rounds", "commit_p50_ms on recover"},
		{"core.log_bytes_per_round", "B/round", "durable rounds", "recovery_p50_ms on recover"},
		{"reliable.retransmits_per_msg", "frames/msg", "app msgs sent", "latency_p90_us on recover, app_msgs_per_s on stencil"},
		{"reliable.useful_ratio", "ratio", "app frames sent", "latency_p90_us on recover, app_msgs_per_s on stencil"},
		{"reliable.acks_per_msg", "frames/msg", "app msgs sent", "app_msgs_per_s on stencil"},
		{"fsstore.fsyncs_per_round", "fsyncs/round", "durable rounds", "commit_p50_ms on recover"},
		{"fsstore.bytes_per_app_byte", "ratio", "app payload bytes sent", "commit_p50_ms on recover"},
		{"fsstore.gc_removed", "count", "per trial", "heap_peak_mb"},
		{"fsstore.intersect_ms", "ms", "per call", "recovery_p50_ms on recover; none on stencil"},
		{"fsstore.open_ms", "ms", "per store", "recovery_p50_ms on recover; none on stencil"},
		{"fsstore.load_ms", "ms", "per store, all records", "recovery_p50_ms on recover; none on stencil"},
		{"fsstore.truncate_ms", "ms", "per store", "recovery_p50_ms on recover; none on stencil"},
		{"checkpoint.replay_ms", "ms", "per record (FoldLog)", "recovery_p50_ms on recover"},
		{"checkpoint.records_retained", "count", "per trial", "heap_peak_mb"},
		{"trace.events", "count", "per trial", "heap_peak_mb"},
		{"trace.record_cpu_s", "s", "profiled trials", "app_msgs_per_s on stencil"},
		{"trace.verify_cpu_s", "s", "per untraced trial, CutAt+CheckCut of every durable round", "none (post-hoc check)"},
		{"runtime.alloc_bytes_per_msg", "B/msg", "app msgs sent", "app_msgs_per_s on stencil"},
		{"runtime.gc_cpu_s", "s", "profiled trials", "app_msgs_per_s on stencil"},
	}
	for _, m := range layerModules {
		ds = append(ds,
			def{m + ".cpu_s", "s", "profiled trials", "app_msgs_per_s"},
			def{m + ".wait_s", "s", "profiled trials, lock waits", "latency_p90_us"},
			def{m + ".idle_goroutines", "goroutines", "chan/select/WaitGroup/Cond wait s per profiled s", "none (idle, not contention)"})
	}
	return append(ds, def{"profile.overhead_pct", "%", "untraced app_msgs_per_s, median of paired trials", "none (tracing cost)"})
}()

// layerRun runs each trial twice, untraced and with profiling on,
// alternating which runs first so that drift in the host's load falls on
// both sides alike, until the budget is spent. Then it runs the
// single-layer probes.
func layerRun(sp spec, seed int64, budget time.Duration, dir string) ([]*trialResult, map[string]float64, error) {
	var base, ts []*trialResult
	var overhead []float64 // % drop of app_msgs_per_s from untraced to profiled, per pair
	var profiled float64   // s of profiled trials
	prof := &profiler{dir: dir}
	start := now()
	for i := 0; i == 0 || since(start) < budget; i++ {
		var pair [2]*trialResult
		for j := 0; j < 2; j++ {
			traced := (i+j)%2 == 1
			tag := " untraced"
			if traced {
				tag = " profiled"
				if err := prof.start(); err != nil {
					return append(base, ts...), nil, err
				}
			}
			t0 := now()
			r, err := runOne(sp, seed, i, dir, tag)
			if traced {
				profiled += since(t0).Seconds()
				if perr := prof.stop(); err == nil {
					err = perr
				}
			}
			if r != nil {
				if traced {
					ts = append(ts, r)
				} else {
					base = append(base, r)
				}
			}
			if err != nil {
				return append(base, ts...), nil, err
			}
			pair[(i+j)%2] = r
		}
		overhead = append(overhead, 100*ratio(pair[0].rate-pair[1].rate, pair[0].rate))
	}
	attr, err := prof.attribute()
	if err != nil {
		return append(base, ts...), nil, err
	}
	w, err := measureWire(sp.wl.MsgBytes, 50_000, 5)
	if err != nil {
		return append(base, ts...), nil, err
	}
	var ceil []float64
	for i := 0; i < 3; i++ {
		r, err := meshCeiling(sp.wl.MsgBytes, 100_000)
		if err != nil {
			return append(base, ts...), nil, err
		}
		ceil = append(ceil, r)
	}

	sumC := func(pred func(string) bool) float64 {
		t := 0.0
		for _, r := range ts {
			for k, v := range r.counters {
				if pred(k) {
					t += float64(v)
				}
			}
		}
		return t
	}
	counter := func(name string) float64 { return sumC(func(k string) bool { return k == name }) }
	reg := func(fam string) float64 {
		t := 0.0
		for _, r := range ts {
			t += float64(r.reg[fam])
		}
		return t
	}
	var frames, frameBytes, deliveries, rounds, alloc, gcCPU float64
	for _, r := range ts {
		frames += float64(r.wire.FramesSent)
		frameBytes += float64(r.wire.BytesSent)
		deliveries += float64(r.deliveries)
		rounds += float64(r.rounds)
		alloc += r.allocBytes
		gcCPU += r.gcCPU
	}
	perTrial := func(f func(*trialResult) float64) float64 {
		var xs []float64
		for _, r := range ts {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	pooled := func(f func(*trialResult) []float64) []float64 {
		var xs []float64
		for _, r := range ts {
			xs = append(xs, f(r)...)
		}
		return xs
	}
	var verifyCPU []float64
	for _, r := range base {
		verifyCPU = append(verifyCPU, r.verify)
	}
	appMsgs := counter("app_msgs")
	recoveries := float64(len(pooled(func(r *trialResult) []float64 { return r.recovery })))
	appFrames := counter("wire.app_frames")
	logBytes := pooled(func(r *trialResult) []float64 { return r.logBytes })
	readPart := perTrial(func(r *trialResult) float64 {
		rt := r.read
		return 2*rt.open + rt.load + rt.truncate + rt.replay
	})
	v := map[string]float64{
		"transport.frames_per_app_msg":           ratio(frames, appMsgs),
		"transport.bytes_per_app_msg":            ratio(frameBytes, appMsgs),
		"transport.writer_queue_p99":             quantile(pooled(func(r *trialResult) []float64 { return r.queue }), 0.99),
		"transport.frames_dropped":               perTrial(func(r *trialResult) float64 { return float64(r.wire.Dropped) }),
		"transport.reconnects":                   perTrial(func(r *trialResult) float64 { return float64(r.wire.Reconnects) }),
		"transport.mesh_ceiling_msgs_per_s":      median(ceil),
		"transport.coordinate_ms":                quantile(pooled(func(r *trialResult) []float64 { return r.recovery }), 0.5) - readPart,
		"transport.rollback_lost_msgs":           perTrial(func(r *trialResult) float64 { return float64(r.lost) }),
		"transport.rb_rebroadcasts_per_recovery": ratio(counter("ctl.RB_BGN")+counter("ctl.RB_CMT")-2*(nodes-1)*recoveries, recoveries),
		"wire.encode_ns_per_msg":                 w.encodeNs,
		"wire.decode_ns_per_msg":                 w.decodeNs,
		"wire.allocs_per_msg":                    w.allocs,
		"wire.piggyback_bytes_per_msg":           ratio(counter("wire.piggyback_bytes"), appFrames),
		"core.finalize_p50_ms":                   quantile(pooled(func(r *trialResult) []float64 { return r.finalize }), 0.5),
		"core.stable_lag_p50_ms":                 quantile(pooled(func(r *trialResult) []float64 { return r.stable }), 0.5),
		"core.ctl_msgs_per_round": ratio(sumC(func(k string) bool {
			return strings.HasPrefix(k, "ctl.CK_")
		}), rounds),
		"core.log_bytes_per_round":     ratio(sum(logBytes), float64(len(logBytes))),
		"reliable.retransmits_per_msg": ratio(counter("reliable.retransmits"), appMsgs),
		"reliable.useful_ratio":        ratio(deliveries, appFrames),
		"reliable.acks_per_msg":        ratio(counter("ctl.ACK"), appMsgs),
		"fsstore.fsyncs_per_round":     ratio(reg("ocsml_fsstore_fsyncs_total"), rounds),
		"fsstore.bytes_per_app_byte":   ratio(reg("ocsml_fsstore_bytes_written_total"), appMsgs*float64(sp.wl.MsgBytes)),
		"fsstore.gc_removed":           perTrial(func(r *trialResult) float64 { return float64(r.reg["ocsml_fsstore_gc_removed_total"]) }),
		"fsstore.intersect_ms":         perTrial(func(r *trialResult) float64 { return r.read.intersect }),
		"fsstore.open_ms":              perTrial(func(r *trialResult) float64 { return r.read.open }),
		"fsstore.load_ms":              perTrial(func(r *trialResult) float64 { return r.read.load }),
		"fsstore.truncate_ms":          perTrial(func(r *trialResult) float64 { return r.read.truncate }),
		"checkpoint.replay_ms":         perTrial(func(r *trialResult) float64 { return r.read.replay }),
		"checkpoint.records_retained":  perTrial(func(r *trialResult) float64 { return float64(r.records) }),
		"trace.events":                 perTrial(func(r *trialResult) float64 { return float64(r.events) }),
		"trace.record_cpu_s":           attr.recordCPU,
		"trace.verify_cpu_s":           median(verifyCPU),
		"runtime.alloc_bytes_per_msg":  ratio(alloc, appMsgs),
		"runtime.gc_cpu_s":             gcCPU,
		"profile.overhead_pct":         median(overhead),
	}
	for _, m := range layerModules {
		v[m+".cpu_s"] = attr.cpu[m]
		v[m+".wait_s"] = attr.wait[m]
		v[m+".idle_goroutines"] = attr.idle[m] / profiled
	}
	fmt.Fprintf(os.Stderr, "clusterbench: %d untraced + %d profiled trials, %.1fs profiled\n",
		len(base), len(ts), profiled)
	return append(base, ts...), v, nil
}

func printTable(name string, seed int64, traced bool, rs []*trialResult, defs []def, vals map[string]float64, out output) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (profiled run)"
	}
	var lat, commit, rec int
	for _, r := range rs {
		lat += len(r.lat)
		commit += len(r.commit)
		rec += len(r.recovery)
	}
	fmt.Printf("clusterbench %s  workload=%s seed=%d trials=%d  samples: latency=%d commit=%d recovery=%d\n",
		kind, name, seed, len(rs), lat, commit, rec)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %-12s", d.name, vals[d.name], d.unit)
		if traced {
			fmt.Printf(" base: %-30s moves: %s", d.base, d.moves)
		}
		fmt.Println()
	}
	fmt.Printf("  %-36s %14.4f %-12s (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(out.Failed), float64(out.Attempted)), "ratio", out.Failed, out.Attempted)
}

// checkManifest fails when BENCHMARK.json and the metrics this program
// reports have drifted apart.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []def) error {
		var a, b []string
		for _, g := range got {
			a = append(a, g.Name+" "+g.Unit)
		}
		for _, w := range want {
			b = append(b, w.name+" "+w.unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			return fmt.Errorf("%s %s metrics %v differ from the reported %v", path, kind, a, b)
		}
		return nil
	}
	if err := same("end_to_end", m.EndToEnd, e2eMetrics); err != nil {
		return err
	}
	return same("per_layer", m.PerLayer, layerMetrics)
}
