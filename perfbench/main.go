// Command perfbench is the repository's benchmark: it drives the real
// library layers — roi, codec, upscale, sr, the stream MultiServer and its
// relay, the pipeline simulator — on one of three workloads, checks their
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as one JSON object on the last line of
// standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload stream-720p|relay-180p|sim-gamestream \
//	    [--seed 1] [--seconds 25] [--trace 0|1]
//
// Layers are timed from outside: every span wraps a call the benchmark
// itself makes into a package's public API. Spans stay in memory during a
// traced run and are written to <trace-dir>/trace-<workload>.json (Chrome
// trace format) at the end. README.md lists what each workload exercises,
// what it bypasses, and which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings every workload receives.
type options struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload returns: operation counts, correctness
// problems and both metric sets. main prints the set the mode asks for.
type report struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]metric
	// table holds the per-layer lines printed above the JSON in a traced
	// run (measured beside modelled, where a model exists).
	table []string
	spans []Span
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// problem records a failed correctness check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// zeroLayers reports every per-layer metric as 0 — the value of a layer the
// workload bypasses — before the workload fills in the ones it measures.
func zeroLayers(rep *report) {
	for _, m := range layerMetrics {
		rep.setLayer(m[0], m[1], 0)
	}
}

// setTail reports the latency tail: the p-th percentile, which must have
// at least minTail samples beyond it.
func setTail(rep *report, xs []float64, p float64) error {
	v, err := percentile(xs, p)
	if err != nil {
		return fmt.Errorf("latency tail: %w", err)
	}
	rep.setLayer("latency.tail_ms", "ms", v)
	return nil
}

// setGoLayers reports the runtime's allocation and GC figures.
func setGoLayers(rep *report, d goDelta) {
	rep.setLayer("go.allocs_per_frame", "count", d.allocsPerFrame)
	rep.setLayer("go.alloc_bytes_per_frame", "B", d.allocBytesPerFrame)
	rep.setLayer("go.gc_cpu_frac", "ratio", d.gcCPUFrac)
}

// endToEnd lists the metrics every workload reports with tracing off, with
// their units; layerMetrics those of the traced run. Every workload reports
// every name: a per-layer metric of a layer the workload bypasses reads 0.
// The latency tail is per-layer: on this class of host a p99 does not
// repeat from run to run within any bound worth gating on.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"fps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_frame", "ms"},
	{"psnr_db", "dB"},
	{"rss_peak_mb", "MiB"},
}

var layerMetrics = [][2]string{
	{"latency.tail_ms", "ms"},
	{"roi.detect_ms", "ms"},
	{"codec.encode_ms", "ms"},
	{"codec.decode_ms", "ms"},
	{"upscale.bilinear_ms", "ms"},
	{"sr.roi_ms", "ms"},
	{"upscale.merge_ms", "ms"},
	{"sr.roi_px", "px"},
	{"codec.bytes_per_frame", "B"},
	{"stream.wire_ms", "ms"},
	{"server.wait_ms", "ms"},
	{"client.wait_ms", "ms"},
	{"stream.direct_ms", "ms"},
	{"relay.extra_ms", "ms"},
	{"relay.dropped", "count"},
	{"relay.drop_to_key", "count"},
	{"relay.evicted", "count"},
	{"relay.delivered_ratio", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"pipeline.server_ms", "ms"},
	{"pipeline.client_ms", "ms"},
	{"pipeline.measure_ms", "ms"},
	{"pipeline.server_wait_ms", "ms"},
	{"pipeline.client_wait_ms", "ms"},
	{"bufpool.hit_ratio", "ratio"},
	{"go.allocs_per_frame", "count"},
	{"go.alloc_bytes_per_frame", "B"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// maxLoop caps a timed loop that cannot reach its minimum frame count.
const maxLoop = 140 * time.Second

// startFrame maps the workload seed to the first frame of the G3 motion
// script a workload uses.
func startFrame(seed int64) int { return int(seed % 600) }

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"stream-720p":    runStream720,
	"relay-180p":     runRelay180,
	"sim-gamestream": runSim,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: stream-720p, relay-180p or sim-gamestream")
		seed     = flag.Int64("seed", 1, "workload seed (offsets the start frame in the game's motion script)")
		seconds  = flag.Int("seconds", 25, "how long the timed loop measures")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build", "directory the traced run writes its spans to")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, seed %d)\n", *name, *seconds, *trace, *seed)
		flag.Usage()
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, traceDir: *traceDir}
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if opt.trace {
		if err := writeTrace(filepath.Join(opt.traceDir, "trace-"+*name+".json"), rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(emit(*name, opt, rep))
}

// emit prints the human-readable lines and then the JSON result as the
// last line of standard output; it returns the exit code.
func emit(name string, opt options, rep *report) int {
	set, want := rep.e2e, endToEnd
	if opt.trace {
		set, want = rep.layer, layerMetrics
		for _, line := range rep.table {
			fmt.Println(line)
		}
	}
	for _, m := range want {
		v, ok := set[m[0]]
		if !ok {
			rep.problem("metric %s not measured", m[0])
			continue
		}
		if v.Unit != m[1] {
			rep.problem("metric %s in %s, want %s", m[0], v.Unit, m[1])
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%v attempted=%d failed=%d\n", name, opt.seed, opt.trace, rep.attempted, rep.failed)
	for _, n := range names {
		fmt.Printf("  %-26s %14.4f %s\n", n, set[n].Value, set[n].Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, set}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// writeTrace writes the spans as a Chrome trace.
func writeTrace(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianSetup runs set-up reps times, keeps the last result and returns the
// median set-up time in seconds: one set-up is too noisy to gate on. close
// releases a discarded result before the next rep.
func medianSetup[T any](reps int, setup func() (T, error), close func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			close(v)
		}
		last = v
	}
	return last, median(times), nil
}

// checkNoSetupSpans reports a set-up span (render, ground truth) that
// falls inside the timed loop [from, to): simulation scaffolding must
// show in setup_s only, never as streaming time.
func checkNoSetupSpans(rep *report, spans []Span, from, to time.Duration) {
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "setup.") && s.End > from && s.Start < to {
			rep.problem("set-up span %s (%v..%v) inside the timed loop (%v..%v)", s.Name, s.Start, s.End, from, to)
		}
	}
}
