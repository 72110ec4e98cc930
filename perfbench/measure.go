package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ctqosim/internal/core"
)

// minReps is the fewest timed repetitions a run makes, whatever its
// budget, so every reported median has at least this many samples.
const minReps = 3

// memProfileRate is the allocation-profile sampling interval of a traced
// run, in bytes. MemProfileRate=1 records every allocation exactly but
// slows fig3 about 24x (1.3 s to 31 s on a 2-CPU host), which does not fit
// the run budget; at 4 KiB the unbiased scaling pprof applies keeps each
// layer's figure within a few percent, and a layer that allocates nothing
// still reads exactly zero.
const memProfileRate = 4096

// bench is one invocation: a workload, its seed, and the tally of
// simulations attempted and failed.
type bench struct {
	w         *workloadDef
	seed      int64
	log       io.Writer
	attempted int
	failed    int
	// want is the digest every timed repetition at seed must reproduce:
	// the committed golden when seed has one, else the first repetition's.
	want string
}

// sample is one repetition's host-side cost.
type sample struct {
	setup, run, cpu time.Duration
	allocBytes      uint64
	allocObjects    uint64
	retainedBytes   uint64
	peakRSSBytes    uint64
}

// repetition is one measured repetition and what it produced. It keeps
// none of the simulations' results, so earlier repetitions do not count
// toward a later one's retained heap.
type repetition struct {
	sample
	books  books
	digest string
	// ok is false when the repetition returned no outcome.
	ok bool
	// sweep is the async-sweep report, nil for the other workloads.
	sweep *core.SweepStats
	// recorded and footprint sum Recorder.Len and MemoryFootprint over
	// the repetition's results (zero for the sweep, which keeps none).
	recorded  int
	footprint int64
}

// measure runs one repetition at seed and times it. The heap it retains
// is read after a forced collection while the repetition's outputs are
// still reachable.
func (b *bench) measure(seed int64) (repetition, error) {
	m := &meter{}
	var before, after runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&before)
	t0 := now()
	out, err := b.w.rep(seed, m)
	t1 := now()
	runtime.ReadMemStats(&after)
	peakRSS := peakRSSBytes()
	m.finish()
	var r repetition
	r.setup, r.run, r.cpu = m.intervals(t0, t1)
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.allocObjects = after.Mallocs - before.Mallocs
	r.peakRSSBytes = peakRSS
	r.books = m.total()
	if out != nil {
		r.ok, r.digest, r.sweep = true, out.digest, out.sweep
		for _, res := range out.results {
			r.recorded += res.Recorder.Len()
			r.footprint += res.Recorder.MemoryFootprint()
		}
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	r.retainedBytes = live.HeapAlloc
	runtime.KeepAlive(out)
	return r, errors.Join(err, errors.Join(m.errs...))
}

// check counts a repetition's simulations as attempted, and as failed if
// it returned an error, broke an accounting invariant, or produced a
// digest other than want (want "" adopts the repetition's digest).
func (b *bench) check(r repetition, err error, want *string) bool {
	b.attempted += b.w.sims
	if err == nil && !r.ok {
		err = errors.New("repetition produced no output")
	}
	if err == nil {
		switch {
		case *want == "":
			*want = r.digest
		case r.digest != *want:
			err = fmt.Errorf("output digest differs from the expected one:\n%s", diffLines(*want, r.digest))
		}
	}
	if err != nil {
		b.failed += b.w.sims
		fmt.Fprintf(b.log, "perfbench: %s seed %d: %v\n", b.w.name, b.seed, err)
		return false
	}
	return true
}

// warmUp runs one untimed repetition at a seed with a committed golden
// digest (alternating between the two golden seeds with the parity of
// -seed) and checks it, then sets the digest the timed repetitions must
// reproduce.
func (b *bench) warmUp() {
	if want, err := golden(b.w.name, b.seed); err == nil {
		b.want = want
	}
	seed := goldenSeeds[0]
	if b.seed%2 != 0 {
		seed = goldenSeeds[1]
	}
	want, err := golden(b.w.name, seed)
	if err != nil {
		b.attempted += b.w.sims
		b.failed += b.w.sims
		fmt.Fprintf(b.log, "perfbench: %v\n", err)
		return
	}
	r, err := b.measure(seed)
	b.check(r, err, &want)
}

// repeat runs timed repetitions at the bench seed until budget has
// elapsed and at least minReps have been made. around, if non-nil, wraps
// each repetition (a profiler start and stop). It returns the repetitions
// that passed their checks.
func (b *bench) repeat(budget time.Duration, around func(run func())) []repetition {
	var reps []repetition
	deadline := time.Now().Add(budget)
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		var r repetition
		var err error
		body := func() { r, err = b.measure(b.seed) }
		if around != nil {
			around(body)
		} else {
			body()
		}
		if b.check(r, err, &b.want) {
			reps = append(reps, r)
		}
	}
	return reps
}

// endToEndRun measures the end-to-end metrics: medians over the timed
// repetitions, plus the process's peak RSS and the share of simulations
// whose outputs checked out.
func (b *bench) endToEndRun(budget time.Duration) map[string]float64 {
	b.warmUp()
	reps := b.repeat(budget, nil)
	v := map[string]float64{
		"setup_s":       median(reps, func(r repetition) float64 { return r.setup.Seconds() }),
		"run_s":         median(reps, func(r repetition) float64 { return r.run.Seconds() }),
		"cpu_s":         median(reps, func(r repetition) float64 { return r.cpu.Seconds() }),
		"alloc_mb":      median(reps, func(r repetition) float64 { return float64(r.allocBytes) / (1 << 20) }),
		"alloc_objects": median(reps, func(r repetition) float64 { return float64(r.allocObjects) }),
		"retained_mb":   median(reps, func(r repetition) float64 { return float64(r.retainedBytes) / (1 << 20) }),
		"max_rss_mb":    median(reps, func(r repetition) float64 { return float64(r.peakRSSBytes) / (1 << 20) }),
	}
	if b.attempted > 0 {
		v["ok_share"] = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	return v
}

// tracedRun measures the per-layer metrics. A third of the budget goes to
// unprofiled baseline repetitions, a third to CPU-profiled ones;
// then one repetition runs under the allocation profiler, and the layer
// probes run last. Every profiled repetition must reproduce the baseline
// digest and executed-event count, which shows the profilers did not
// perturb the model.
func (b *bench) tracedRun(budget time.Duration) map[string]float64 {
	v := make(map[string]float64)
	b.warmUp()

	base := b.repeat(budget/3, nil)
	if len(base) == 0 {
		return v
	}
	events := base[0].books.executed
	baseRun := median(base, func(r repetition) float64 { return r.run.Seconds() })

	var cpuProfiles [][]byte
	profiled := b.repeat(budget/3, func(run func()) {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			fmt.Fprintf(b.log, "perfbench: cpu profile: %v\n", err)
			run()
			return
		}
		run()
		pprof.StopCPUProfile()
		cpuProfiles = append(cpuProfiles, buf.Bytes())
	})
	selfTime := make(map[string]float64)
	for _, data := range cpuProfiles {
		if err := addCPUProfile(selfTime, data); err != nil {
			b.failed += b.w.sims
			fmt.Fprintf(b.log, "perfbench: %v\n", err)
		}
	}

	allocBytes, memRep := b.allocProfile()
	for _, r := range append(profiled, memRep...) {
		if r.books.executed != events {
			b.failed += b.w.sims
			fmt.Fprintf(b.log, "perfbench: profiled repetition executed %d events, baseline %d\n", r.books.executed, events)
		}
	}

	for _, l := range buckets {
		if len(cpuProfiles) > 0 {
			v[l+".self_s"] = selfTime[l] / float64(len(cpuProfiles))
		}
		v[l+".alloc_mb"] = allocBytes[l] / (1 << 20)
	}

	k := base[0].books
	v["des.events_executed"] = float64(k.executed)
	v["des.events_scheduled"] = float64(k.scheduled)
	v["des.peak_pending"] = float64(k.peakPending)
	if k.executed > 0 {
		v["des.host_ns_per_event"] = baseRun * 1e9 / float64(k.executed)
	}
	v["simnet.attempts"] = float64(k.hops.Attempts)
	v["simnet.drops"] = float64(k.hops.Dropped)
	v["simnet.retransmits"] = float64(k.hops.Retransmits)
	v["simnet.gave_up"] = float64(k.hops.GaveUp)
	if k.hops.Attempts > 0 {
		v["simnet.delivery_ratio"] = float64(k.hops.Delivered) / float64(k.hops.Attempts)
	}
	v["server.accepted"] = float64(k.servers.Accepted)
	v["server.completed"] = float64(k.servers.Completed)
	v["server.failed"] = float64(k.servers.Failed)
	v["workload.sent"] = float64(k.sent)
	v["workload.completed"] = float64(k.completed)
	v["workload.failed"] = float64(k.failed)

	recorded, footprint := b.recorderBooks(base[0])
	v["metrics.recorded"] = float64(recorded)
	v["metrics.footprint_kb"] = float64(footprint) / (1 << 10)

	if len(profiled) > 0 && baseRun > 0 {
		v["bench.trace_overhead"] = median(profiled, func(r repetition) float64 { return r.run.Seconds() }) / baseRun
	}
	for _, p := range layerProbes {
		ns, allocs := runProbe(p)
		v[p.name+"_ns"] = ns
		v[p.name+"_allocs"] = allocs
	}
	return v
}

// allocProfile runs one repetition with the allocation profiler sampling
// every memProfileRate bytes and returns the bytes allocated per layer.
func (b *bench) allocProfile() (map[string]float64, []repetition) {
	defaultRate := runtime.MemProfileRate
	runtime.GC()
	before := memProfile()
	runtime.MemProfileRate = memProfileRate
	r, err := b.measure(b.seed)
	runtime.GC() // publish the repetition's allocations to the profile
	after := memProfile()
	runtime.MemProfileRate = defaultRate
	if !b.check(r, err, &b.want) {
		return nil, nil
	}
	return bucketAllocs(before, after, memProfileRate), []repetition{r}
}

// recorderBooks returns the requests the metrics layer recorded and the
// telemetry it retained, summed over the repetition's simulations. The
// sweep keeps no per-seed Result, so its seeds are re-run one by one on
// the same Runner path the sweep uses; their results must agree with the
// sweep report.
func (b *bench) recorderBooks(r repetition) (recorded int, footprint int64) {
	if r.sweep == nil {
		return r.recorded, r.footprint
	}
	cfgs := make([]core.Config, sweepSeeds)
	for i := range cfgs {
		cfgs[i] = asyncSweepConfig(b.seed + int64(i))
	}
	b.attempted += b.w.sims
	results, err := core.NewRunner(1).Run(cfgs)
	if err == nil {
		err = checkSweep(r.sweep, results)
	}
	if err != nil {
		b.failed += b.w.sims
		fmt.Fprintf(b.log, "perfbench: %s seed %d: per-seed re-run: %v\n", b.w.name, b.seed, err)
		return 0, 0
	}
	for _, res := range results {
		recorded += res.Recorder.Len()
		footprint += res.Recorder.MemoryFootprint()
	}
	return recorded, footprint
}

// checkSweep checks the sweep report against the per-seed results: every
// seed completed, and the per-run extremes of throughput, VLRT count and
// drops match.
func checkSweep(st *core.SweepStats, results []*core.Result) error {
	if st.Completed != len(results) || st.Failed != 0 {
		return fmt.Errorf("sweep completed %d (failed %d), per-seed runs %d", st.Completed, st.Failed, len(results))
	}
	tput := make([]float64, len(results))
	vlrt := make([]float64, len(results))
	drops := make([]float64, len(results))
	for i, res := range results {
		tput[i], vlrt[i], drops[i] = res.Throughput, float64(res.VLRTCount), float64(res.TotalDrops)
	}
	for _, c := range []struct {
		name string
		m    core.MetricSweep
		runs []float64
	}{{"throughput", st.Throughput, tput}, {"vlrt", st.VLRT, vlrt}, {"drops", st.Drops, drops}} {
		if c.m.Min != slices.Min(c.runs) || c.m.Max != slices.Max(c.runs) {
			return fmt.Errorf("sweep %s range [%g, %g], per-seed runs [%g, %g]",
				c.name, c.m.Min, c.m.Max, slices.Min(c.runs), slices.Max(c.runs))
		}
	}
	return nil
}

// median returns the median of f over reps (0 when there are none).
func median(reps []repetition, f func(repetition) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// resetPeakRSS resets the process's peak resident set size (VmHWM) so
// the next peakRSSBytes covers one repetition only. Kernels without the
// reset (before Linux 4.0) leave the process-lifetime peak in place.
func resetPeakRSS() {
	// An error leaves the lifetime peak, which only over-reports.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes is the process's peak resident set size since the last
// resetPeakRSS, read from /proc/self/status, or the lifetime peak from
// getrusage where that file is unreadable.
func peakRSSBytes() uint64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return uint64(ru.Maxrss) << 10 // Linux reports KiB
}
