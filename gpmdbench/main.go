// Command gpmdbench is gpmd's end-to-end benchmark. It deploys the
// daemon's request path exactly as cmd/gpmd builds it — an in-process
// server.Server behind a loopback http.Server, configured with gpmd's
// flag defaults — and drives it through the typed client package with
// one of three workloads:
//
//	adhoc      closed loop, 2 clients: distinct match/sim/dual/strong/count queries
//	dashboard  open loop at a seeded Poisson rate: Zipf-popular cached panels plus drill-downs
//	stream     one writer sending /update batches beside one reader, WAL on, then a crash
//
// Every response is checked against an independent in-process engine;
// a run in which a request fails or a response differs prints
// correct=false and exits 1.
//
// Usage, from the repository root:
//
//	bash gpmdbench/run.sh --workload adhoc --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json; with --trace 1 the run repeats
// its measured phase with spans recorded and reports the per-layer
// metrics, including the tracing overhead. --workload all runs the
// three workloads in turn and prints every end-to-end metric of each.
// --capacity measures the closed-loop capacity on the dashboard's
// request mix that its offered rate is set from.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// endToEndMetrics are the metrics a --trace 0 run reports, with their
// units; every workload measures all of them. The report above the
// result line also prints the tails (query_p99_ms, match_p90_ms) and
// the metrics only some workloads have; they are left out here because
// their run-to-run spread on a shared 2-vCPU machine exceeded the
// largest bound a gated metric may have (see README.md).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"throughput_rps", "req/s"},
	{"query_p50_ms", "ms"},
	{"match_p50_ms", "ms"},
	{"sim_p50_ms", "ms"},
	{"dual_p50_ms", "ms"},
	{"strong_p50_ms", "ms"},
}

// perLayerMetrics are the metrics a --trace 1 run reports. A layer the
// workload does not exercise reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"core.match_ms_p50", "ms"},
	{"core.oracle_probes_per_match", "count"},
	{"core.initial_pairs_per_query", "count"},
	{"core.kept_ratio", "ratio"},
	{"pll.build_ms", "ms"},
	{"matrix.build_ms", "ms"},
	{"simulation.sim_ms_p50", "ms"},
	{"topo.dual_ms_p50", "ms"},
	{"topo.strong_ms_p50", "ms"},
	{"plan.count_ms_p50", "ms"},
	{"plan.steps_per_count", "count"},
	{"gio.parse_us_p50", "us"},
	{"pattern.canonical_us_p50", "us"},
	{"pattern.containment_us_p50", "us"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.containment_ratio", "ratio"},
	{"qcache.evictions", "count"},
	{"qcache.mb", "MiB"},
	{"server.hit_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"client.wire_us_p50", "us"},
	{"incremental.update_ms_p50", "ms"},
	{"incremental.delta_pairs_per_batch", "count"},
	{"incremental.recomputed_ratio", "ratio"},
	{"wal.append_us_p50", "us"},
	{"wal.bytes_per_batch", "B"},
	{"wal.snapshot_ms_p50", "ms"},
	{"wal.replay_ms", "ms"},
	{"graph.freeze_ms_p50", "ms"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.achieved_ratio", "ratio"},
	{"dashboard.hit_share", "ratio"},
	{"dashboard.containment_share", "ratio"},
	{"dashboard.cold_share", "ratio"},
	{"stream.reads_in_update_share", "ratio"},
	{"trace.query_p50_overhead_pct", "%"},
	{"trace.throughput_overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"adhoc":     runAdhoc,
	"dashboard": runDashboard,
	"stream":    runStream,
}

var workloadOrder = []string{"adhoc", "dashboard", "stream"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Exit codes other than 0.
const (
	exitIncorrect = 1 // a request failed, or a response differed from its reference
	exitError     = 2 // bad usage, or the run could not complete
	exitInvalid   = 3 // the load generator fell behind: not scored
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpmdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "adhoc | dashboard | stream | all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same operations")
	seconds := fs.Int("seconds", 10, "nominal run length; sizes every workload's operation list")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build", "scratch directory for generated inputs, WAL and spans")
	capacity := fs.Bool("capacity", false, "measure the dashboard's closed-loop capacity, which its rate is set from")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "gpmdbench: want --workload NAME --seed N --seconds S --trace 0|1, or --capacity")
		return exitError
	}
	base := runConfig{seed: *seed, trace: *trace == 1, dir: *dir, sz: defaultSizes(*seconds), out: stdout}
	if *capacity {
		return runCapacity(base, stderr)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "gpmdbench: unknown workload %q (want adhoc, dashboard, stream or all)\n", *workload)
		return exitError
	}
	return runAll(names, base, stderr)
}

// runAll runs the named workloads in turn and prints the result line.
// An incorrect run (a failed request, or a response that differs) prints
// correct=false and exits 1, whether or not its load generator kept up;
// a correct run whose generator fell behind prints no result line.
func runAll(names []string, base runConfig, stderr io.Writer) int {
	if err := os.MkdirAll(base.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "gpmdbench:", err)
		return exitError
	}
	res := resultLine{Correct: true, Metrics: map[string]metric{}}
	var invalid []string
	for _, name := range names {
		cfg := base
		cfg.workload = name
		r, err := runIn(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "gpmdbench: %s: %v\n", name, err)
			var re *requestError
			if errors.As(err, &re) {
				return exitIncorrect
			}
			return exitError
		}
		printReport(cfg, r)
		res.Attempted += r.attempted
		res.Failed += len(r.failures)
		if !r.correct() {
			res.Correct = false
			fmt.Fprintf(stderr, "gpmdbench: %s: %d requests failed, %d responses differ from the reference\n",
				name, len(r.failures), len(r.mismatches))
		}
		if r.invalid != nil {
			invalid = append(invalid, fmt.Sprintf("%s: %v", name, r.invalid))
		}
		ms, err := selectMetrics(cfg, r)
		if err != nil {
			fmt.Fprintf(stderr, "gpmdbench: %s: %v\n", name, err)
			return exitError
		}
		for k, v := range ms {
			if len(names) > 1 {
				k = name + "." + k
			}
			res.Metrics[k] = v
		}
	}
	if res.Correct && len(invalid) > 0 {
		for _, msg := range invalid {
			fmt.Fprintf(stderr, "gpmdbench: run invalid, not scored: %s\n", msg)
		}
		return exitInvalid
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "gpmdbench:", err)
		return exitError
	}
	fmt.Fprintln(base.out, string(line))
	if !res.Correct {
		return exitIncorrect
	}
	return 0
}

// runCapacity prints the dashboard's closed-loop capacity.
func runCapacity(cfg runConfig, stderr io.Writer) int {
	cfg.workload = "dashboard"
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "gpmdbench:", err)
		return exitError
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "gpmdbench:", err)
		return exitError
	}
	defer os.RemoveAll(work)
	cfg.dir = work
	rps, mismatches, err := dashCapacity(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "gpmdbench: capacity:", err)
		var re *requestError
		if errors.As(err, &re) {
			return exitIncorrect
		}
		return exitError
	}
	for _, m := range mismatches {
		cfg.logf("MISMATCH %v", m)
	}
	if len(mismatches) > 0 {
		return exitIncorrect
	}
	cfg.logf("capacity: %.1f req/s on the dashboard's requests, closed loop over %d connections (seed %d); offered rate %.0f req/s is %.3f of it",
		rps, dashConns, cfg.seed, cfg.sz.dashRate, cfg.sz.dashRate/rps)
	return 0
}

// runIn runs one workload with its generated inputs and WAL in a fresh
// directory under cfg.dir, removed afterwards; spans stay in cfg.dir.
func runIn(cfg runConfig) (*report, error) {
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.spanDir = cfg.dir
	cfg.dir = work
	return workloads[cfg.workload](cfg)
}

// selectMetrics picks the metrics the result line carries.
func selectMetrics(cfg runConfig, r *report) (map[string]metric, error) {
	out := map[string]metric{}
	if !cfg.trace {
		for _, e := range endToEndMetrics {
			m, ok := r.e2e.get(e.name)
			if !ok || m.Unit != e.unit {
				return nil, fmt.Errorf("end-to-end metric %s (%s) not measured", e.name, e.unit)
			}
			out[e.name] = m
		}
		return out, nil
	}
	for _, e := range perLayerMetrics {
		m, ok := r.layer.get(e.name)
		if !ok {
			m = metric{Value: 0, Unit: e.unit}
		}
		if m.Unit != e.unit {
			return nil, fmt.Errorf("per-layer metric %s measured in %s, want %s", e.name, m.Unit, e.unit)
		}
		out[e.name] = m
	}
	return out, nil
}

// printReport prints a run's metrics by name and unit, then any failed
// requests and mismatches.
func printReport(cfg runConfig, r *report) {
	cfg.logf("workload %s seed %d: %d requests attempted, %d failed", cfg.workload, cfg.seed, r.attempted, len(r.failures))
	cfg.logf("metric %-34s %14.4f %s", "fail_ratio", ratio(float64(len(r.failures)), float64(r.attempted)), "ratio")
	for _, name := range r.e2e.names {
		m, _ := r.e2e.get(name)
		cfg.logf("metric %-34s %14.4f %s", name, m.Value, m.Unit)
	}
	if cfg.trace {
		names := append([]string(nil), r.layer.names...)
		sort.Strings(names)
		for _, name := range names {
			m, _ := r.layer.get(name)
			cfg.logf("layer  %-34s %14.4f %s", name, m.Value, m.Unit)
		}
	}
	printErrs(cfg, "FAILED", r.failures)
	printErrs(cfg, "MISMATCH", r.mismatches)
}

// printErrs prints the first 20 errors, each under tag.
func printErrs(cfg runConfig, tag string, errs []error) {
	for i, err := range errs {
		if i == 20 {
			cfg.logf("... %d more", len(errs)-i)
			break
		}
		cfg.logf("%s %v", tag, err)
	}
}
