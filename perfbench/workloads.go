package main

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/metrics"
	"ctqosim/internal/ntier"
	"ctqosim/internal/server"
	"ctqosim/internal/simnet"
)

// sweepSeeds is how many consecutive seeds one async-sweep repetition
// covers: enough to exercise the sweep accumulators across runs while a
// repetition stays a few host seconds long.
const sweepSeeds = 4

// workload is one benchmark input: a fixed set of simulations whose
// configuration comes from the committed scenario files, seeded by the
// benchmark's -seed.
type workloadDef struct {
	name string
	// sims is the number of simulations one repetition runs.
	sims int
	// rep runs one repetition at seed on a single-worker core.Runner,
	// passing every config through m.instrument.
	rep func(seed int64, m *meter) (*outcome, error)
}

// outcome is what one repetition produced: the canonical digest text its
// outputs are checked by, and the values that stay reachable until the
// repetition's retained heap is measured.
type outcome struct {
	digest  string
	results []*core.Result
	sweep   *core.SweepStats
}

var workloads = []*workloadDef{
	{name: "ctqo-traced", sims: 1, rep: runCTQOTraced},
	{name: "async-sweep", sims: sweepSeeds, rep: runAsyncSweep},
	{name: "fig12-curve", sims: 2 * len(core.Figure12Concurrencies), rep: runFig12Curve},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runCTQOTraced runs the fig3 scenario as ctqo-analyze runs it: sync NX=0
// under VM consolidation with the trace log and span tracer on and every
// request retained.
func runCTQOTraced(seed int64, m *meter) (*outcome, error) {
	cfg := core.Figure3Config()
	cfg.Seed = seed
	return runConfigs([]core.Config{cfg}, m)
}

// runFig12Curve runs the full Fig. 12 table: both architectures at every
// paper concurrency, paired into rows as core.Runner.Figure12 pairs them.
func runFig12Curve(seed int64, m *meter) (*outcome, error) {
	var cfgs []core.Config
	for _, n := range core.Figure12Concurrencies {
		for _, nx := range []ntier.NX{ntier.NX0, ntier.NX3} {
			cfg := core.Figure12Config(nx, n)
			cfg.Seed = seed
			cfgs = append(cfgs, cfg)
		}
	}
	out, err := runConfigs(cfgs, m)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(out.digest)
	b.WriteString("fig12 concurrency sync_req_s async_req_s\n")
	for i, n := range core.Figure12Concurrencies {
		fmt.Fprintf(&b, "%d %g %g\n", n, out.results[2*i].Throughput, out.results[2*i+1].Throughput)
	}
	out.digest = b.String()
	return out, nil
}

// asyncSweepConfig is async-highutil as `ntierlab sweep -retention
// bounded` configures it: no trace log, no spans, bounded telemetry.
func asyncSweepConfig(seed int64) core.Config {
	cfg := core.AsyncHighUtilConfig()
	cfg.Seed = seed
	cfg.Trace = false
	cfg.Spans = false
	cfg.Retention = metrics.RetainBounded
	return cfg
}

// runAsyncSweep runs core.Runner.Sweep over sweepSeeds consecutive seeds
// of async-highutil; the digest is the sweep report's bytes.
func runAsyncSweep(seed int64, m *meter) (*outcome, error) {
	sc := core.SweepConfig{Config: m.instrument(asyncSweepConfig(seed)), Seeds: sweepSeeds}
	stats, err := core.NewRunner(1).Sweep(sc)
	if err != nil {
		return nil, err
	}
	return &outcome{digest: stats.String() + string(stats.CSV()), sweep: stats}, nil
}

// runConfigs runs cfgs serially on one core.Runner worker and digests
// every result.
func runConfigs(cfgs []core.Config, m *meter) (*outcome, error) {
	for i := range cfgs {
		cfgs[i] = m.instrument(cfgs[i])
	}
	results, err := core.NewRunner(1).Run(cfgs)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	var errs []error
	for _, res := range results {
		writeResultDigest(&b, res)
		errs = append(errs, checkResult(res))
	}
	return &outcome{digest: b.String(), results: results}, errors.Join(errs...)
}

// writeResultDigest writes the outputs a simulation is checked by:
// throughput, completed requests, VLRT count, drops per server and the
// response-time percentiles.
func writeResultDigest(b *strings.Builder, res *core.Result) {
	rec := res.Recorder
	fmt.Fprintf(b, "%s seed=%d throughput=%g completed=%d vlrt=%d drops=%d p50=%v p99=%v p999=%v max=%v\n",
		res.Config.Name, res.Config.Seed, res.Throughput, rec.Len(), res.VLRTCount, res.TotalDrops,
		rec.Percentile(0.50), rec.Percentile(0.99), rec.Percentile(0.999), rec.Percentile(1))
	for _, name := range res.System.Transport.Destinations() {
		fmt.Fprintf(b, "  drops %s=%d\n", name, res.DropsPerServer[name])
	}
}

// checkResult checks that a result's drop total is the sum of its hops'.
func checkResult(res *core.Result) error {
	var sum int64
	for _, name := range res.System.Transport.Destinations() {
		sum += res.System.Transport.Stats(name).Dropped
	}
	if res.TotalDrops != sum {
		return fmt.Errorf("%s seed %d: Result.TotalDrops %d != sum of per-hop drops %d",
			res.Config.Name, res.Config.Seed, res.TotalDrops, sum)
	}
	return nil
}

// mark is one host-side boundary: wall clock and process CPU time.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func now() mark {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return mark{wall: time.Now(), cpu: cpu}
}

// books is the deterministic work a simulation did, read from each
// layer's exported accessors once the simulation has ended.
type books struct {
	executed, scheduled     uint64
	peakPending             int
	hops                    simnet.HopStats
	servers                 server.Stats
	sent, completed, failed int64
}

func (k *books) add(o books) {
	k.executed += o.executed
	k.scheduled += o.scheduled
	k.peakPending = max(k.peakPending, o.peakPending)
	k.hops.Attempts += o.hops.Attempts
	k.hops.Delivered += o.hops.Delivered
	k.hops.Dropped += o.hops.Dropped
	k.hops.Retransmits += o.hops.Retransmits
	k.hops.GaveUp += o.hops.GaveUp
	k.servers.Accepted += o.servers.Accepted
	k.servers.Completed += o.servers.Completed
	k.servers.Failed += o.servers.Failed
	k.sent += o.sent
	k.completed += o.completed
	k.failed += o.failed
}

// simRecord is one simulation's boundaries and, once audited, its books.
type simRecord struct {
	build, start mark
	clients      int
	handles      *core.RunHandles
	books        books
}

// meter instruments the configs of one repetition. Its Tweak wrapper
// marks where a simulation's system build begins and its Script wrapper
// marks the set-up/run boundary (the next event is the first simulated
// one) and keeps the run handles. When the next simulation starts, or the
// repetition ends, the finished simulation is audited and its handles
// dropped, so the meter never keeps a finished simulation reachable.
type meter struct {
	sims []simRecord
	errs []error
}

// instrument returns cfg with its Tweak and Script wrapped to call the
// meter; the scenario's own hooks still run, unchanged.
func (m *meter) instrument(cfg core.Config) core.Config {
	tweak, script, clients := cfg.Tweak, cfg.Script, cfg.Clients
	cfg.Tweak = func(spec *ntier.SystemSpec) {
		m.beginBuild() //lint:allow purity,sharedmut host-side measurement boundary: records wall/CPU time and audits the finished run, never feeds simulation state
		if tweak != nil {
			tweak(spec)
		}
	}
	cfg.Script = func(h *core.RunHandles) {
		if script != nil {
			script(h)
		}
		m.beginRun(h, clients) //lint:allow purity,sharedmut host-side measurement boundary: records wall/CPU time and keeps the handles for the audit, never feeds simulation state
	}
	return cfg
}

func (m *meter) beginBuild() {
	m.finish()
	m.sims = append(m.sims, simRecord{build: now()})
}

func (m *meter) beginRun(h *core.RunHandles, clients int) {
	s := &m.sims[len(m.sims)-1]
	s.start = now()
	handles := *h
	s.handles, s.clients = &handles, clients
}

// finish audits the last simulation if it has not been audited yet.
func (m *meter) finish() {
	if len(m.sims) == 0 {
		return
	}
	s := &m.sims[len(m.sims)-1]
	if s.handles == nil {
		return
	}
	var err error
	s.books, err = audit(s.handles, s.clients)
	if err != nil {
		m.errs = append(m.errs, err)
	}
	s.handles = nil
}

// intervals splits a repetition that ran from t0 to t1 into set-up time
// (from t0 to the first build, and from each build to its first simulated
// event) and run time (the rest), with the process CPU time of the run
// intervals.
func (m *meter) intervals(t0, t1 mark) (setup, run, cpu time.Duration) {
	if len(m.sims) == 0 {
		return 0, t1.wall.Sub(t0.wall), t1.cpu - t0.cpu
	}
	setup = m.sims[0].build.wall.Sub(t0.wall)
	for i, s := range m.sims {
		setup += s.start.wall.Sub(s.build.wall)
		end := t1
		if i+1 < len(m.sims) {
			end = m.sims[i+1].build
		}
		cpu += end.cpu - s.start.cpu
	}
	return setup, t1.wall.Sub(t0.wall) - setup, cpu
}

// total sums the books of every simulation of the repetition.
func (m *meter) total() books {
	var k books
	for _, s := range m.sims {
		k.add(s.books)
	}
	return k
}

// audit reads a finished simulation's books and checks its accounting:
// every request sent is completed or still in flight (at most one per
// client), failures are a subset of completions, and on every hop each
// attempt was delivered or dropped and each drop was retransmitted or
// given up.
func audit(h *core.RunHandles, clients int) (books, error) {
	k := books{
		executed:    h.Sim.Executed(),
		scheduled:   h.Sim.Scheduled(),
		peakPending: h.Sim.PeakPending(),
		sent:        h.Clients.Sent(),
		completed:   h.Clients.Completed(),
		failed:      h.Clients.Failed(),
	}
	var errs []error
	inFlight := k.sent - k.completed
	if inFlight < 0 || inFlight > int64(clients) {
		errs = append(errs, fmt.Errorf("workload: sent %d, completed %d: %d in flight for %d clients",
			k.sent, k.completed, inFlight, clients))
	}
	if k.failed > k.completed {
		errs = append(errs, fmt.Errorf("workload: failed %d > completed %d", k.failed, k.completed))
	}
	systems := []*ntier.System{h.Steady}
	if h.Bursty != nil {
		systems = append(systems, h.Bursty)
	}
	for _, sys := range systems {
		var drops int64
		for _, name := range sys.Transport.Destinations() {
			st := sys.Transport.Stats(name)
			if st.Attempts != st.Delivered+st.Dropped {
				errs = append(errs, fmt.Errorf("simnet %s: attempts %d != delivered %d + dropped %d",
					name, st.Attempts, st.Delivered, st.Dropped))
			}
			if st.Dropped != st.Retransmits+st.GaveUp {
				errs = append(errs, fmt.Errorf("simnet %s: dropped %d != retransmits %d + gave up %d",
					name, st.Dropped, st.Retransmits, st.GaveUp))
			}
			drops += st.Dropped
			k.hops.Attempts += st.Attempts
			k.hops.Delivered += st.Delivered
			k.hops.Dropped += st.Dropped
			k.hops.Retransmits += st.Retransmits
			k.hops.GaveUp += st.GaveUp
		}
		if total := sys.TotalDrops(); total != drops {
			errs = append(errs, fmt.Errorf("simnet: TotalDrops %d != sum of per-hop drops %d", total, drops))
		}
		for _, srv := range sys.Servers() {
			st := srv.Stats()
			k.servers.Accepted += st.Accepted
			k.servers.Completed += st.Completed
			k.servers.Failed += st.Failed
		}
	}
	return k, errors.Join(errs...)
}
