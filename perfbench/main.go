// Command perfbench is the repository benchmark. It runs one workload
// (ctqo-traced, async-sweep or fig12-curve) repeatedly for a host-time
// budget, checks every simulation's outputs, and prints the workload's
// metrics by name and unit; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"run_s": {"value": 1.21, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// profiler attached. With -trace 1 the run profiles the same workload and
// prints the per-layer metrics instead. Everything is measured from
// outside the simulator, through core.Config/Runner/Result, the
// Config.Tweak and Config.Script hooks, each layer's exported accessors,
// and runtime/pprof. See README.md for the workloads, the metrics and the
// layer-to-end-to-end table.
//
// Usage:
//
//	go build -o perfbench . && ./perfbench -workload fig12-curve -seed 3 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a -trace 0 run prints: what a user of the
// simulator pays for one repetition of the workload, summed over its
// simulations (medians over repetitions, except the process-wide peak RSS).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"alloc_objects", "count", "lower"},
	{"retained_mb", "MiB", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"ok_share", "ratio", "higher"},
}

// layers are the modules the per-layer metrics are broken down by: the
// ctqosim/internal packages a simulation runs through.
var layers = []string{
	"des", "cpu", "simnet", "server", "workload", "metrics",
	"span", "trace", "ntier", "core", "scenario",
}

// gcBucket collects profile samples with no layer frame on the stack:
// the garbage collector, the Go scheduler and the benchmark driver itself.
const gcBucket = "gc"

// buckets are the layers plus gcBucket: what profile samples are charged to.
var buckets = append(append([]string(nil), layers...), gcBucket)

// perLayer lists the metrics a -trace 1 run prints, in print order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range buckets {
		defs = append(defs, metricDef{l + ".self_s", "s", "lower"})
	}
	for _, l := range buckets {
		defs = append(defs, metricDef{l + ".alloc_mb", "MiB", "lower"})
	}
	defs = append(defs,
		metricDef{"des.events_executed", "count", "lower"},
		metricDef{"des.events_scheduled", "count", "lower"},
		metricDef{"des.peak_pending", "count", "lower"},
		metricDef{"des.host_ns_per_event", "ns", "lower"},
		metricDef{"simnet.attempts", "count", "lower"},
		metricDef{"simnet.drops", "count", "lower"},
		metricDef{"simnet.retransmits", "count", "lower"},
		metricDef{"simnet.gave_up", "count", "lower"},
		metricDef{"simnet.delivery_ratio", "ratio", "higher"},
		metricDef{"server.accepted", "count", "higher"},
		metricDef{"server.completed", "count", "higher"},
		metricDef{"server.failed", "count", "lower"},
		metricDef{"workload.sent", "count", "higher"},
		metricDef{"workload.completed", "count", "higher"},
		metricDef{"workload.failed", "count", "lower"},
		metricDef{"metrics.recorded", "count", "higher"},
		metricDef{"metrics.footprint_kb", "KiB", "lower"},
	)
	for _, p := range layerProbes {
		defs = append(defs,
			metricDef{p.name + "_ns", "ns/op", "lower"},
			metricDef{p.name + "_allocs", "allocs/op", "lower"})
	}
	return append(defs, metricDef{"bench.trace_overhead", "ratio", "lower"})
}

// metricName is the grammar every metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (the first simulation seed)")
	seconds := fs.Float64("seconds", 10, "host seconds of measured repetitions")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: profiled run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	b := &bench{w: w, seed: *seed, log: stderr}
	defs := endToEnd
	var values map[string]float64
	if *traced == 1 {
		defs = perLayer()
		values = b.tracedRun(budget)
	} else {
		values = b.endToEndRun(budget)
	}
	rep := b.report(defs, values)
	if err := printReport(stdout, w.name, defs, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// report assembles the JSON object; a metric the run could not measure
// (every repetition failed) is reported as zero alongside correct=false.
func (b *bench) report(defs []metricDef, values map[string]float64) report {
	rep := report{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return rep
}

// printReport writes the human-readable table followed by the JSON line.
func printReport(w io.Writer, workload string, defs []metricDef, rep report) error {
	fmt.Fprintf(w, "workload %s: %d simulations attempted, %d failed\n", workload, rep.Attempted, rep.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %16.6g %-10s (%s is better)\n", d.name, rep.Metrics[d.name].Value, d.unit, d.better)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
