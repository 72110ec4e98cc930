package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden digests from the current simulator")

// TestGolden pins every workload's digest at both golden seeds, and
// checks that the accounting audit passes on each.
func TestGolden(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			m := &meter{}
			out, err := w.rep(seed, m)
			m.finish()
			if err = errors.Join(err, errors.Join(m.errs...)); err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if len(m.sims) != w.sims {
				t.Errorf("%s seed %d: metered %d simulations, want %d", w.name, seed, len(m.sims), w.sims)
			}
			path := goldenPath(w.name, seed)
			if *update {
				if err := os.WriteFile(path, []byte(out.digest), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := golden(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if out.digest != want {
				t.Errorf("%s seed %d digest differs from %s:\n%s", w.name, seed, path, diffLines(want, out.digest))
			}
		}
	}
}

// TestPerturbedConfigFailsGolden shortens the retransmission timeout of
// ctqo-traced to 1 s: every simulation's digest then differs from the
// golden, so every one counts as failed and the run reports correct=false.
func TestPerturbedConfigFailsGolden(t *testing.T) {
	perturbed := &workloadDef{name: "ctqo-traced", sims: 1, rep: func(seed int64, m *meter) (*outcome, error) {
		cfg := core.Figure3Config()
		cfg.Seed = seed
		cfg.RTO = time.Second
		return runConfigs([]core.Config{cfg}, m)
	}}
	b := &bench{w: perturbed, seed: goldenSeeds[0], log: io.Discard}
	v := b.endToEndRun(time.Nanosecond)
	if b.attempted == 0 || b.failed != b.attempted {
		t.Fatalf("failed %d of %d simulations, want all", b.failed, b.attempted)
	}
	if v["ok_share"] != 0 {
		t.Errorf("ok_share = %g, want 0 (failed share 1)", v["ok_share"])
	}
	if rep := b.report(endToEnd, v); rep.Correct {
		t.Error("report says correct")
	}
}

// TestBucketOf pins the innermost-layer-frame rule on fixed stacks.
func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "ctqosim/internal/des.(*Simulator).ScheduleAt", "ctqosim/internal/workload.(*ClosedLoop).clientLoop"}, "des"},
		{[]string{"ctqosim/internal/cpu.(*Node).reschedule", "ctqosim/internal/cpu.(*VM).Submit", "ctqosim/internal/server.(*SyncServer).runStage.func1"}, "cpu"},
		{[]string{"runtime.memmove", "ctqosim/internal/server.(*SyncServer).accept.func2", "ctqosim/internal/des.(*Simulator).Run"}, "server"},
		{[]string{"ctqosim/internal/fault.(*LogFlush).start", "ctqosim/internal/des.(*Simulator).fire"}, "des"},
		{[]string{"ctqosim/internal/metrics.NearestRank[...]", "ctqosim/internal/core.(*Experiment).Run"}, "metrics"},
		{[]string{"encoding/json.Unmarshal", "ctqosim/internal/scenario.Parse", "ctqosim/internal/core.mustScenario"}, "scenario"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, gcBucket},
		{[]string{"main.(*bench).measure", "main.run", "runtime.main"}, gcBucket},
		{[]string{"ctqosim/internal/spanner.F", "ctqosim/internal/lint/analysis.Run"}, gcBucket},
		{nil, gcBucket},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMetricNames checks every metric name against the name grammar and
// for uniqueness, and that BENCHMARK.json declares exactly the workloads
// and metrics the command prints.
func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command has %s", got, want)
	}
	compare := func(kind string, defs []metricDef, got []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(got), len(defs))
			return
		}
		for i := range defs {
			if got[i] != defs[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, command prints %+v", kind, i, got[i], defs[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	compare("end_to_end", endToEnd, e2e)
	compare("per_layer", perLayer(), layer)
}

// runCommand runs the command and decodes its last output line.
func runCommand(t *testing.T, args ...string) (int, report, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, stderr.String())
	}
	return code, rep, stderr.String()
}

// TestSmokeEndToEnd runs each workload briefly and checks that it passes
// its output checks and prints every end-to-end metric, none of them 0.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		code, rep, stderr := runCommand(t, "-workload", w.name, "-seed", "3", "-seconds", "0.001", "-trace", "0")
		if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted != (1+minReps)*w.sims {
			t.Fatalf("%s: exit %d, report %+v, stderr %s", w.name, code, rep, stderr)
		}
		for _, d := range endToEnd {
			m, ok := rep.Metrics[d.name]
			if !ok || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v", w.name, d.name, m)
			}
		}
	}
}

// TestSmokeTraced runs ctqo-traced's profiled run briefly and checks the
// per-layer metrics it is the only workload to move.
func TestSmokeTraced(t *testing.T) {
	code, rep, stderr := runCommand(t, "-workload", "ctqo-traced", "-seed", "2", "-seconds", "0.001", "-trace", "1")
	if code != 0 || !rep.Correct {
		t.Fatalf("exit %d, report %+v, stderr %s", code, rep, stderr)
	}
	if len(rep.Metrics) != len(perLayer()) {
		t.Errorf("printed %d metrics, want %d", len(rep.Metrics), len(perLayer()))
	}
	for _, name := range []string{"simnet.drops", "span.alloc_mb", "trace.alloc_mb", "cpu.self_s", "des.events_executed", "des.post_ns", "bench.trace_overhead"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, rep.Metrics[name].Value)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if code := run([]string{"-workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
