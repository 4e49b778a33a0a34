package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tinySizes keep a pass of every workload to a second or two.
func tinySizes() sizes {
	return sizes{
		adhocScale:          0.04,
		streamScale:         0.04,
		adhocPerRoute:       3,
		countMaxSteps:       1_000_000,
		dashPatterns:        2,
		panelPairs:          [2]int{1, 1000},
		dashRate:            500,
		dashRequests:        150,
		drillShare:          0.1,
		streamBatches:       6,
		streamReadsPerBatch: 4,
		snapEvery:           4,
		setups:              1,
	}
}

func tinyConfig(t *testing.T, workload string, trace bool, f fault) runConfig {
	return runConfig{
		workload: workload,
		seed:     3,
		trace:    trace,
		dir:      t.TempDir(),
		spanDir:  t.TempDir(),
		sz:       tinySizes(),
		fault:    f,
		out:      io.Discard,
	}
}

// TestCleanPassVerifies runs every workload at tiny scale, traced and
// untraced: every response must match the reference, no request may
// fail, and every metric the result line carries must be measured.
func TestCleanPassVerifies(t *testing.T) {
	for _, w := range workloadOrder {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace, fault{})
			r, err := workloads[w](cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, trace, err)
			}
			if !r.correct() {
				t.Errorf("%s (trace %v): failures %v, mismatches %v", w, trace, r.failures, r.mismatches)
			}
			if r.attempted == 0 {
				t.Errorf("%s (trace %v): no requests attempted", w, trace)
			}
			if _, err := selectMetrics(cfg, r); err != nil {
				t.Errorf("%s (trace %v): %v", w, trace, err)
			}
		}
	}
}

// runFaulty runs one workload through runAll with f injected and
// returns the exit code, standard output and standard error.
func runFaulty(t *testing.T, workload string, f fault) (int, string, string) {
	var out, errOut bytes.Buffer
	cfg := tinyConfig(t, "", false, f)
	cfg.out = &out
	code := runAll([]string{workload}, cfg, &errOut)
	return code, out.String(), errOut.String()
}

// resultOf parses the result line, the last line of standard output.
func resultOf(t *testing.T, stdout string) resultLine {
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestCorruptedResponseFails flips one relation pair in one response of
// each workload: the run must print correct=false, exit 1 and name the
// request.
func TestCorruptedResponseFails(t *testing.T) {
	for _, w := range workloadOrder {
		id := 0
		if w == "adhoc" {
			// Request 0 may be a /count; corrupt the first relation request.
			in, err := genAdhoc(tinyConfig(t, w, false, fault{}))
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range in.ops {
				if isRelation(q.route) {
					id = i
					break
				}
			}
		}
		code, out, _ := runFaulty(t, w, fault{faultFlip, id})
		if code != exitIncorrect {
			t.Errorf("%s: corrupting request %d exited %d, want %d", w, id, code, exitIncorrect)
		}
		if res := resultOf(t, out); res.Correct || res.Failed != 0 {
			t.Errorf("%s: result line says correct %v, failed %d", w, res.Correct, res.Failed)
		}
		want := "MISMATCH request " + strconv.Itoa(id) + " ("
		if n := strings.Count(out, "MISMATCH "); n != 1 || !strings.Contains(out, want) {
			t.Errorf("%s: want one mismatch naming %q, got %d in:\n%s", w, want, n, out)
		}
	}
}

// TestFailedRequestFails makes one read of each workload fail: the run
// must print correct=false with failed=1, exit 1 and name the request.
// A failed stream update stops the pass, which must exit 1 too.
func TestFailedRequestFails(t *testing.T) {
	for _, w := range workloadOrder {
		code, out, _ := runFaulty(t, w, fault{faultFail, 0})
		if code != exitIncorrect {
			t.Errorf("%s: failing request 0 exited %d, want %d", w, code, exitIncorrect)
		}
		if res := resultOf(t, out); res.Correct || res.Failed != 1 {
			t.Errorf("%s: result line says correct %v, failed %d; want false, 1", w, res.Correct, res.Failed)
		}
		if !strings.Contains(out, "FAILED request 0 (") {
			t.Errorf("%s: no failure naming request 0 in:\n%s", w, out)
		}
	}

	sz := tinySizes()
	firstBatch := sz.streamBatches * sz.streamReadsPerBatch
	code, out, errOut := runFaulty(t, "stream", fault{faultFail, firstBatch})
	if code != exitIncorrect || out != "" {
		t.Errorf("stream update: exit %d, stdout %q; want %d and nothing", code, out, exitIncorrect)
	}
	if want := "request " + strconv.Itoa(firstBatch) + " (update batch 0) failed"; !strings.Contains(errOut, want) {
		t.Errorf("stream update: stderr %q does not name %q", errOut, want)
	}
}

// TestUsage checks that malformed command lines exit non-zero without a
// result line.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "adhoc", "--trace", "2"},
		{"--workload", "adhoc", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloadOrder))
	}
	for i, w := range doc.Workloads {
		if i < len(workloadOrder) && w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadOrder[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}
