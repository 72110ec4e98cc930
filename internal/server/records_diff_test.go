package server_test

// Differential check of the record-based servers against the closure-based
// AsyncServer and SyncServer they replaced, kept below verbatim apart from
// renames and package qualifiers, as internal/cpu/ps_diff_test.go keeps
// the old processor-sharing model. Both sides build the same random
// n-tier chain in simulators of their own and serve the same closed-loop
// clients; every reply time and payload, every server's Stats and Shed,
// every transport counter, the kernel's event counts, every span tree
// and every trace.Log event must agree exactly. The test lives in the
// external package so it can attach a trace.Log, which imports workload,
// which imports server.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/server"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
	"ctqosim/internal/trace"
	"ctqosim/internal/workload"
)

// ---- the closure-based reference servers ----

// refReplyNow invokes a call's reply callback if present.
func refReplyNow(call *simnet.Call, payload any) {
	if call.OnReply != nil {
		call.OnReply(payload)
	}
}

// refAsyncServer is the closure-based AsyncServer: an event-driven server with continuation-passing
// downstream calls.
type refAsyncServer struct {
	sim       *des.Simulator
	vm        *cpu.VM
	transport *simnet.Transport
	plan      server.PlanFunc
	cfg       server.AsyncConfig

	busy     int // workers executing a CPU burst
	inFlight int // admitted requests not yet replied
	ready    []func()
	stats    server.Stats
}

var _ server.Server = (*refAsyncServer)(nil)

// NewAsync creates an asynchronous server running on vm.
func newRefAsync(sim *des.Simulator, vm *cpu.VM, transport *simnet.Transport, plan server.PlanFunc, cfg server.AsyncConfig) *refAsyncServer {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.LiteQDepth < 1 {
		cfg.LiteQDepth = 1
	}
	return &refAsyncServer{sim: sim, vm: vm, transport: transport, plan: plan, cfg: cfg}
}

// Name implements simnet.Admission.
func (a *refAsyncServer) Name() string { return a.cfg.Name }

// VM implements Server.
func (a *refAsyncServer) VM() *cpu.VM { return a.vm }

// Stats implements Server.
func (a *refAsyncServer) Stats() server.Stats { return a.stats }

// Depth implements Server: every admitted, unfinished request is held in
// the lightweight queue (possibly parked waiting for a downstream reply).
func (a *refAsyncServer) Depth() int { return a.inFlight }

// InService implements Server.
func (a *refAsyncServer) InService() int { return a.busy }

// MaxSysQDepth implements Server.
func (a *refAsyncServer) MaxSysQDepth() int { return a.cfg.LiteQDepth }

// Ready returns the number of runnable work items waiting for a worker.
func (a *refAsyncServer) Ready() int { return len(a.ready) }

// TryAccept implements simnet.Admission: admit unless the lightweight
// queue is exhausted.
func (a *refAsyncServer) TryAccept(call *simnet.Call) bool {
	if a.inFlight >= a.cfg.LiteQDepth {
		return false
	}
	a.inFlight++
	a.stats.Accepted++
	prog := a.plan(call.Payload)
	a.enqueueWait(call, func() { a.runStage(call, prog, 0) })
	return true
}

// enqueueWait is enqueue plus a queue-wait span covering the time the work
// item sits in the ready queue before a worker picks it up. Continuation
// hand-offs go through here too, so a request that bounces between bursts
// accumulates every wait. With tracing off the span ID is zero and the
// item is enqueued untouched — identical dynamics either way.
func (a *refAsyncServer) enqueueWait(call *simnet.Call, item func()) {
	wait := call.Trace.Start(span.KindQueueWait, a.cfg.Name, call.SpanID)
	if wait == 0 {
		a.enqueue(item)
		return
	}
	a.enqueue(func() {
		call.Trace.End(wait)
		item()
	})
}

// enqueue adds a runnable work item and dispatches if a worker is free.
// Continuations (downstream replies) re-enter through here as well; they
// are never dropped — LiteQDepth bounds admissions, not continuations.
func (a *refAsyncServer) enqueue(item func()) {
	a.ready = append(a.ready, item)
	a.dispatch()
}

func (a *refAsyncServer) dispatch() {
	for a.busy < a.cfg.Workers && len(a.ready) > 0 {
		item := a.ready[0]
		copy(a.ready, a.ready[1:])
		a.ready[len(a.ready)-1] = nil
		a.ready = a.ready[:len(a.ready)-1]
		a.busy++
		item()
	}
}

// runStage executes stage i: the worker is held only for the CPU burst;
// a downstream call parks the request and frees the worker.
func (a *refAsyncServer) runStage(call *simnet.Call, prog server.Program, i int) {
	if i >= len(prog) {
		a.release()
		a.finish(call, call.Payload, false)
		return
	}
	stage := prog[i]
	// One service span per CPU burst: an async request's service time is
	// the sum of its bursts, with the waits between them showing up as
	// queue-wait and downstream spans instead.
	svc := call.Trace.Start(span.KindService, a.cfg.Name, call.SpanID)
	a.vm.Submit(a.inflate(stage.CPU), func() {
		call.Trace.End(svc)
		if stage.Call == nil {
			a.release()
			a.enqueueWait(call, func() { a.runStage(call, prog, i+1) })
			return
		}
		a.callDownstream(call, prog, i, stage.Call)
	})
}

func (a *refAsyncServer) callDownstream(call *simnet.Call, prog server.Program, i int, d *server.Downstream) {
	ds := call.Trace.Start(span.KindDownstream, d.Dest.Name(), call.SpanID)
	var poolWait span.ID
	send := func() {
		call.Trace.End(poolWait)
		sub := &simnet.Call{Payload: call.Payload, Trace: call.Trace, SpanID: ds}
		sub.OnReply = func(reply any) {
			if d.Pool != nil {
				d.Pool.Release()
			}
			call.Trace.End(ds)
			if f, ok := reply.(server.Failure); ok {
				a.finish(call, f, true)
				return
			}
			a.enqueueWait(call, func() { a.runStage(call, prog, i+1) })
		}
		sub.OnGiveUp = func() {
			if d.Pool != nil {
				d.Pool.Release()
			}
			call.Trace.End(ds)
			a.finish(call, server.Failure{Server: d.Dest.Name()}, true)
		}
		a.transport.Send(d.Dest, sub)
	}
	// The worker is released before the call is issued; the reply arrives
	// as a continuation. This is the doGet/eventHandler split of the
	// paper's Fig. 14.
	a.release()
	if d.Pool != nil {
		poolWait = call.Trace.Start(span.KindPoolWait, d.Dest.Name(), ds)
		d.Pool.Acquire(send)
		return
	}
	send()
}

func (a *refAsyncServer) release() {
	a.busy--
	// Dispatch is deferred to a fresh event so the released worker picks
	// up queued work after the current call stack unwinds.
	a.sim.Schedule(0, a.dispatch)
}

func (a *refAsyncServer) finish(call *simnet.Call, payload any, failed bool) {
	if failed {
		a.stats.Failed++
	} else {
		a.stats.Completed++
	}
	a.inFlight--
	refReplyNow(call, payload)
}

func (a *refAsyncServer) inflate(d time.Duration) time.Duration {
	if a.cfg.OverheadPerThread <= 0 {
		return d
	}
	factor := 1 + a.cfg.OverheadPerThread*float64(a.busy)
	return time.Duration(float64(d) * factor)
}

// refSyncServer is the closure-based SyncServer: a thread-per-request RPC
// server.
type refSyncServer struct {
	sim       *des.Simulator
	vm        *cpu.VM
	transport *simnet.Transport
	plan      server.PlanFunc
	cfg       server.SyncConfig

	busy       int
	spareAdded bool
	spareArmed bool
	queue      []*refQueuedCall
	stats      server.Stats
	shed       int64
}

// refQueuedCall is an accept-queue entry with its optional shedding timer and
// its open queue-wait span.
type refQueuedCall struct {
	call  *simnet.Call
	timer *des.Event
	wait  span.ID
}

var _ server.Server = (*refSyncServer)(nil)

// NewSync creates a synchronous server running on vm, planning request
// programs with plan and issuing downstream calls over transport.
func newRefSync(sim *des.Simulator, vm *cpu.VM, transport *simnet.Transport, plan server.PlanFunc, cfg server.SyncConfig) *refSyncServer {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Backlog < 0 {
		cfg.Backlog = 0
	}
	if cfg.SpareThreads > 0 && cfg.SpareAfter <= 0 {
		cfg.SpareAfter = 10 * time.Second
	}
	return &refSyncServer{sim: sim, vm: vm, transport: transport, plan: plan, cfg: cfg}
}

// Name implements simnet.Admission.
func (s *refSyncServer) Name() string { return s.cfg.Name }

// VM implements Server.
func (s *refSyncServer) VM() *cpu.VM { return s.vm }

// Stats implements Server.
func (s *refSyncServer) Stats() server.Stats { return s.stats }

// Depth implements Server.
func (s *refSyncServer) Depth() int { return s.busy + len(s.queue) }

// InService implements Server.
func (s *refSyncServer) InService() int { return s.busy }

// MaxSysQDepth implements Server. It reflects the current thread count, so
// it rises when the spare process has spawned.
func (s *refSyncServer) MaxSysQDepth() int { return s.threadCap() + s.cfg.Backlog }

// Queued returns the number of requests waiting in the accept queue.
func (s *refSyncServer) Queued() int { return len(s.queue) }

// TryAccept implements simnet.Admission: admit to a free thread, else to
// the accept queue, else drop.
func (s *refSyncServer) TryAccept(call *simnet.Call) bool {
	if s.busy < s.threadCap() {
		s.stats.Accepted++
		s.startOnThread(call)
		return true
	}
	s.maybeArmSpare()
	if len(s.queue) < s.cfg.Backlog {
		s.stats.Accepted++
		entry := &refQueuedCall{
			call: call,
			wait: call.Trace.Start(span.KindQueueWait, s.cfg.Name, call.SpanID),
		}
		if s.cfg.QueueTimeout > 0 {
			entry.timer = s.sim.Schedule(s.cfg.QueueTimeout, func() {
				s.shedEntry(entry)
			})
		}
		s.queue = append(s.queue, entry)
		return true
	}
	return false
}

// Shed returns the number of requests dropped from the accept queue by
// the QueueTimeout policy.
func (s *refSyncServer) Shed() int64 { return s.shed }

// shedEntry removes a timed-out entry from the queue and fails it fast.
func (s *refSyncServer) shedEntry(entry *refQueuedCall) {
	for i, q := range s.queue {
		if q != entry {
			continue
		}
		copy(s.queue[i:], s.queue[i+1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		s.shed++
		s.stats.Failed++
		entry.call.Trace.End(entry.wait)
		entry.call.Trace.Annotate(entry.wait, "shed by queue timeout")
		refReplyNow(entry.call, server.Failure{Server: s.cfg.Name})
		return
	}
}

func (s *refSyncServer) threadCap() int {
	if s.spareAdded {
		return s.cfg.Threads + s.cfg.SpareThreads
	}
	return s.cfg.Threads
}

// maybeArmSpare schedules the spare-process check the first time the pool
// saturates. If the pool is still saturated when the check fires, the spare
// threads come online and absorb the accept queue.
func (s *refSyncServer) maybeArmSpare() {
	if s.cfg.SpareThreads <= 0 || s.spareAdded || s.spareArmed {
		return
	}
	s.spareArmed = true
	s.sim.Schedule(s.cfg.SpareAfter, func() {
		s.spareArmed = false
		if s.busy < s.threadCap() {
			return // pressure subsided; stay at the base pool
		}
		s.spareAdded = true
		s.drainQueue()
	})
}

func (s *refSyncServer) startOnThread(call *simnet.Call) {
	s.busy++
	prog := s.plan(call.Payload)
	// The service span covers the whole thread-held visit; downstream and
	// retransmission children subtract out of its exclusive time.
	svc := call.Trace.Start(span.KindService, s.cfg.Name, call.SpanID)
	s.runStage(call, svc, prog, 0)
}

// runStage executes stage i of the program: CPU burst, then the optional
// downstream call, then the next stage. The thread (busy slot) is held
// throughout, including downstream retransmission waits.
func (s *refSyncServer) runStage(call *simnet.Call, svc span.ID, prog server.Program, i int) {
	if i >= len(prog) {
		s.finish(call, svc, call.Payload, false)
		return
	}
	stage := prog[i]
	demand := s.inflate(stage.CPU)
	s.vm.Submit(demand, func() {
		if stage.Call == nil {
			s.runStage(call, svc, prog, i+1)
			return
		}
		s.callDownstream(call, svc, prog, i, stage.Call)
	})
}

func (s *refSyncServer) callDownstream(call *simnet.Call, svc span.ID, prog server.Program, i int, d *server.Downstream) {
	ds := call.Trace.Start(span.KindDownstream, d.Dest.Name(), svc)
	var poolWait span.ID
	send := func() {
		call.Trace.End(poolWait)
		sub := &simnet.Call{Payload: call.Payload, Trace: call.Trace, SpanID: ds}
		sub.OnReply = func(reply any) {
			if d.Pool != nil {
				d.Pool.Release()
			}
			call.Trace.End(ds)
			if f, ok := reply.(server.Failure); ok {
				s.finish(call, svc, f, true)
				return
			}
			s.runStage(call, svc, prog, i+1)
		}
		sub.OnGiveUp = func() {
			if d.Pool != nil {
				d.Pool.Release()
			}
			call.Trace.End(ds)
			s.finish(call, svc, server.Failure{Server: d.Dest.Name()}, true)
		}
		s.transport.Send(d.Dest, sub)
	}
	if d.Pool != nil {
		// The thread waits (still held) until a connection frees up.
		poolWait = call.Trace.Start(span.KindPoolWait, d.Dest.Name(), ds)
		d.Pool.Acquire(send)
		return
	}
	send()
}

// finish replies upstream, releases the thread and pulls the next queued
// request onto it.
func (s *refSyncServer) finish(call *simnet.Call, svc span.ID, payload any, failed bool) {
	if failed {
		s.stats.Failed++
	} else {
		s.stats.Completed++
	}
	s.busy--
	call.Trace.End(svc)
	s.drainQueue()
	refReplyNow(call, payload)
}

func (s *refSyncServer) drainQueue() {
	for s.busy < s.threadCap() && len(s.queue) > 0 {
		next := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		if next.timer != nil {
			s.sim.Cancel(next.timer)
		}
		next.call.Trace.End(next.wait)
		s.startOnThread(next.call)
	}
}

// inflate applies the thread-management overhead model of Fig. 12.
func (s *refSyncServer) inflate(d time.Duration) time.Duration {
	if s.cfg.OverheadPerThread <= 0 {
		return d
	}
	factor := 1 + s.cfg.OverheadPerThread*float64(s.busy)
	return time.Duration(float64(d) * factor)
}

// ---- the differential harness ----

// stageSpec is one stage of a generated program: its CPU demand and
// whether it calls the next tier.
type stageSpec struct {
	cpu  time.Duration
	call bool
}

// tierSpec is one generated tier.
type tierSpec struct {
	async        bool
	threads      int // threads (sync) or workers (async)
	backlog      int
	liteQ        int
	spare        int
	spareAfter   time.Duration
	queueTimeout time.Duration
	overhead     float64
	node         int // index of the node the tier's VM shares
	pool         int // connection-pool size on the hop to the next tier; 0 for none
	progs        [][]stageSpec
}

// diffSpec is one generated world: a chain of tiers, optionally ending in
// an admission that replies inside TryAccept, the transport's knobs and
// closed-loop clients.
type diffSpec struct {
	tiers       []tierSpec
	echo        bool // the last tier calls an admission that replies inside TryAccept
	echoDrop    int  // the echo admission refuses every echoDrop-th attempt; 0 never
	rto         time.Duration
	maxAttempts int
	backoff     bool
	latency     time.Duration
	tracing     bool
	starts      []time.Duration // per client: first send
	thinks      []time.Duration // per client: think time; 0 resends inside the reply
	perClient   int
}

// genSpec draws a world small enough to run in milliseconds but tight
// enough to overflow backlogs, shed, escalate to spare threads, wait on
// pools, drop, retransmit and give up.
func genSpec(rng *rand.Rand) diffSpec {
	spec := diffSpec{
		echo:        rng.Intn(2) == 0,
		rto:         time.Duration(20+rng.Intn(60)) * time.Millisecond,
		maxAttempts: 1 + rng.Intn(3),
		backoff:     rng.Intn(3) == 0,
		tracing:     rng.Intn(2) == 0,
		perClient:   1 + rng.Intn(6),
	}
	if rng.Intn(3) == 0 {
		spec.echoDrop = 2 + rng.Intn(3)
	}
	if rng.Intn(3) == 0 {
		spec.latency = 50 * time.Microsecond
	}
	nt := 1 + rng.Intn(4)
	for i := 0; i < nt; i++ {
		t := tierSpec{
			async:   rng.Intn(2) == 0,
			threads: 1 + rng.Intn(3),
			backlog: rng.Intn(4),
			liteQ:   1 + rng.Intn(6),
			node:    rng.Intn(nt),
		}
		if rng.Intn(3) == 0 {
			t.spare = 1 + rng.Intn(2)
			t.spareAfter = time.Duration(20+rng.Intn(180)) * time.Millisecond
		}
		if rng.Intn(3) == 0 {
			t.queueTimeout = time.Duration(5+rng.Intn(45)) * time.Millisecond
		}
		if rng.Intn(4) == 0 {
			t.overhead = 0.05
		}
		if rng.Intn(3) == 0 {
			t.pool = 1 + rng.Intn(2)
		}
		hasNext := i < nt-1 || spec.echo
		for p := 1 + rng.Intn(3); p > 0; p-- {
			var prog []stageSpec
			for s := rng.Intn(4); s > 0; s-- {
				prog = append(prog, stageSpec{
					cpu:  time.Duration(rng.Intn(4000)) * time.Microsecond,
					call: hasNext && rng.Intn(2) == 0,
				})
			}
			t.progs = append(t.progs, prog)
		}
		spec.tiers = append(spec.tiers, t)
	}
	for c := 1 + rng.Intn(8); c > 0; c-- {
		spec.starts = append(spec.starts, time.Duration(rng.Intn(50000))*time.Microsecond)
		think := time.Duration(100+rng.Intn(30000)) * time.Microsecond
		if rng.Intn(3) == 0 {
			think = 0
		}
		spec.thinks = append(spec.thinks, think)
	}
	return spec
}

// noRequest is requestID's answer for a payload that is no request.
const noRequest = ^uint64(0)

// requestID is the ID of the workload request a payload carries, or
// noRequest.
func requestID(payload any) uint64 {
	if req, ok := payload.(*workload.Request); ok {
		return req.ID
	}
	return noRequest
}

// world is one side of the differential.
type world struct {
	sim    *des.Simulator
	tr     *simnet.Transport
	log    *trace.Log
	tracer *span.Tracer
	tiers  []server.Server
	front  simnet.Admission
	echo   *echoAdmission
	nextID uint64

	replies []string
	traces  []*span.Trace
	// admitted holds the request ID each admitted call carried on entry
	// to TryAccept, until the transport reports it Delivered.
	admitted []uint64
	err      error
}

func (w *world) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// tap wraps an admission to note the request ID a call carries when it
// is admitted, for checkListener to compare at Delivered.
type tap struct {
	w     *world
	inner simnet.Admission
}

func (t tap) Name() string { return t.inner.Name() }

func (t tap) TryAccept(call *simnet.Call) bool {
	id := requestID(call.Payload)
	if !t.inner.TryAccept(call) {
		return false
	}
	t.w.admitted = append(t.w.admitted, id)
	return true
}

// checkListener forwards to the world's trace.Log and checks that each
// Delivered call still carries the request it was admitted with: a record
// recycled while the transport still reads its Call would hand the log
// another request's ID.
type checkListener struct{ w *world }

func (l checkListener) Dropped(dst string, call *simnet.Call) { l.w.log.Dropped(dst, call) }
func (l checkListener) Retransmitted(dst string, call *simnet.Call) {
	l.w.log.Retransmitted(dst, call)
}
func (l checkListener) GaveUp(dst string, call *simnet.Call) { l.w.log.GaveUp(dst, call) }
func (l checkListener) Delivered(dst string, call *simnet.Call) {
	w := l.w
	n := len(w.admitted) - 1
	want := w.admitted[n]
	w.admitted = w.admitted[:n]
	if got := requestID(call.Payload); got != want {
		w.fail("Delivered at %s carries payload %v, admitted as request %d", dst, call.Payload, want)
	}
	w.log.Delivered(dst, call)
}

// echoAdmission replies inside TryAccept, as a downstream tier with no
// work (or perfbench's probe admission) does; it refuses every
// dropEvery-th attempt.
type echoAdmission struct {
	attempts, dropEvery int
}

func (e *echoAdmission) Name() string { return "echo" }

func (e *echoAdmission) TryAccept(call *simnet.Call) bool {
	e.attempts++
	if e.dropEvery > 0 && e.attempts%e.dropEvery == 0 {
		return false
	}
	call.OnReply(nil)
	return true
}

// buildWorld wires spec with the record-based servers, or with the
// closure-based reference ones when ref is set.
func buildWorld(spec diffSpec, ref bool) *world {
	sim := des.NewSimulator(1)
	w := &world{sim: sim, tr: simnet.NewTransport(sim), log: trace.NewLog(sim)}
	w.tr.RTO, w.tr.MaxAttempts, w.tr.Backoff, w.tr.Latency = spec.rto, spec.maxAttempts, spec.backoff, spec.latency
	w.tr.Listener = checkListener{w}
	if spec.tracing {
		w.tracer = span.NewTracer(sim.Now, span.TracerConfig{Seed: 1})
	}
	var next simnet.Admission
	if spec.echo {
		w.echo = &echoAdmission{dropEvery: spec.echoDrop}
		next = tap{w, w.echo}
	}
	nodes := make([]*cpu.Node, len(spec.tiers))
	w.tiers = make([]server.Server, len(spec.tiers))
	for i := len(spec.tiers) - 1; i >= 0; i-- {
		t := spec.tiers[i]
		name := fmt.Sprintf("t%d", i)
		if nodes[t.node] == nil {
			nodes[t.node] = cpu.NewNode(sim, fmt.Sprintf("n%d", t.node), 1)
		}
		vm := nodes[t.node].AddVM(name, 1, 1)
		var pool *simnet.ConnPool
		if t.pool > 0 {
			pool = simnet.NewConnPool(t.pool)
		}
		progs := make([]server.Program, len(t.progs))
		for p, stages := range t.progs {
			for _, st := range stages {
				stage := server.Stage{CPU: st.cpu}
				if st.call {
					stage.Call = &server.Downstream{Dest: next, Pool: pool}
				}
				progs[p] = append(progs[p], stage)
			}
		}
		plan := func(payload any) server.Program { return progs[requestID(payload)%uint64(len(progs))] }
		var srv server.Server
		if t.async {
			cfg := server.AsyncConfig{Name: name, Workers: t.threads, LiteQDepth: t.liteQ, OverheadPerThread: t.overhead}
			if ref {
				srv = newRefAsync(sim, vm, w.tr, plan, cfg)
			} else {
				srv = server.NewAsync(sim, vm, w.tr, plan, cfg)
			}
		} else {
			cfg := server.SyncConfig{Name: name, Threads: t.threads, Backlog: t.backlog,
				SpareThreads: t.spare, SpareAfter: t.spareAfter,
				OverheadPerThread: t.overhead, QueueTimeout: t.queueTimeout}
			if ref {
				srv = newRefSync(sim, vm, w.tr, plan, cfg)
			} else {
				srv = server.NewSync(sim, vm, w.tr, plan, cfg)
			}
		}
		w.tiers[i] = srv
		next = tap{w, srv}
	}
	w.front = next
	for c := range spec.starts {
		cl := &diffClient{w: w, left: spec.perClient, think: spec.thinks[c]}
		sim.Schedule(spec.starts[c], cl.send)
	}
	return w
}

// diffClient is one closed-loop client. With zero think time it sends
// its next request from inside the previous one's reply, re-entering the
// front server while the reply chain is still on the stack.
type diffClient struct {
	w     *world
	left  int
	think time.Duration
}

func (c *diffClient) send() {
	w := c.w
	req := &workload.Request{ID: w.nextID, Submitted: w.sim.Now()}
	w.nextID++
	req.Trace = w.tracer.StartRequest(req.ID, "diff")
	call := &simnet.Call{Payload: req, Trace: req.Trace, SpanID: span.RootID}
	call.OnReply = func(reply any) {
		outcome := "ok"
		if f, ok := reply.(server.Failure); ok {
			outcome = "failed at " + f.Server
		}
		c.done(req, outcome)
	}
	call.OnGiveUp = func() { c.done(req, "gave up") }
	w.tr.Send(w.front, call)
}

func (c *diffClient) done(req *workload.Request, outcome string) {
	w := c.w
	w.replies = append(w.replies, fmt.Sprintf("request %d at %v: %s", req.ID, w.sim.Now(), outcome))
	w.tracer.Finish(req.Trace)
	w.traces = append(w.traces, req.Trace)
	c.left--
	if c.left == 0 {
		return
	}
	if c.think == 0 {
		c.send()
		return
	}
	w.sim.Schedule(c.think, c.send)
}

// diffCoverage sums what a batch of generated worlds exercised, so the
// property test can show its generator reaches every mechanism.
type diffCoverage struct {
	hops, drops, retransmits, gaveUp, shed, failed, spare, echoed, traced int64
}

// runDiff runs spec on both sides and reports the first disagreement.
func runDiff(spec diffSpec, cov *diffCoverage) error {
	got, want := buildWorld(spec, false), buildWorld(spec, true)
	for _, w := range []*world{got, want} {
		if err := w.sim.Run(time.Hour); err != nil {
			return fmt.Errorf("Run: %v", err)
		}
	}
	if got.err != nil {
		return fmt.Errorf("record servers: %v", got.err)
	}
	if want.err != nil {
		return fmt.Errorf("reference servers: %v", want.err)
	}
	if !reflect.DeepEqual(got.replies, want.replies) {
		return fmt.Errorf("replies differ:\n  records:   %v\n  reference: %v", got.replies, want.replies)
	}
	if total := len(spec.starts) * spec.perClient; len(got.replies) != total {
		return fmt.Errorf("%d replies, want one per request (%d)", len(got.replies), total)
	}
	for i := range got.tiers {
		g, r := got.tiers[i], want.tiers[i]
		if g.Stats() != r.Stats() || g.Depth() != r.Depth() || g.InService() != r.InService() ||
			g.MaxSysQDepth() != r.MaxSysQDepth() {
			return fmt.Errorf("tier %d: Stats/Depth/InService/MaxSysQDepth %+v/%d/%d/%d, reference %+v/%d/%d/%d",
				i, g.Stats(), g.Depth(), g.InService(), g.MaxSysQDepth(),
				r.Stats(), r.Depth(), r.InService(), r.MaxSysQDepth())
		}
		cov.failed += g.Stats().Failed
		if gs, ok := g.(*server.SyncServer); ok {
			if gs.Shed() != r.(*refSyncServer).Shed() {
				return fmt.Errorf("tier %d: Shed %d, reference %d", i, gs.Shed(), r.(*refSyncServer).Shed())
			}
			cov.shed += gs.Shed()
			if gs.MaxSysQDepth() > spec.tiers[i].threads+spec.tiers[i].backlog {
				cov.spare++
			}
		}
	}
	if !reflect.DeepEqual(got.tr.Destinations(), want.tr.Destinations()) {
		return fmt.Errorf("destinations %v, reference %v", got.tr.Destinations(), want.tr.Destinations())
	}
	for _, dst := range got.tr.Destinations() {
		g, r := got.tr.Stats(dst), want.tr.Stats(dst)
		if g != r {
			return fmt.Errorf("hop %s: %+v, reference %+v", dst, g, r)
		}
		cov.hops += g.Delivered
		cov.drops += g.Dropped
		cov.retransmits += g.Retransmits
		cov.gaveUp += g.GaveUp
	}
	if got.sim.Executed() != want.sim.Executed() || got.sim.Scheduled() != want.sim.Scheduled() ||
		got.sim.PeakPending() != want.sim.PeakPending() || got.sim.Now() != want.sim.Now() {
		return fmt.Errorf("kernel executed/scheduled/peak/now %d/%d/%d/%v, reference %d/%d/%d/%v",
			got.sim.Executed(), got.sim.Scheduled(), got.sim.PeakPending(), got.sim.Now(),
			want.sim.Executed(), want.sim.Scheduled(), want.sim.PeakPending(), want.sim.Now())
	}
	if !reflect.DeepEqual(got.log.Events(), want.log.Events()) {
		return fmt.Errorf("trace logs differ:\n  records:   %v\n  reference: %v", got.log.Events(), want.log.Events())
	}
	for i := range got.traces {
		if !reflect.DeepEqual(got.traces[i].Spans(), want.traces[i].Spans()) {
			return fmt.Errorf("request %d span tree:\n%s\nreference:\n%s",
				i, got.traces[i].Tree(), want.traces[i].Tree())
		}
		if got.traces[i] != nil {
			cov.traced++
		}
	}
	if got.echo != nil {
		cov.echoed += int64(got.echo.attempts)
	}
	return nil
}

// TestRecordServersMatchClosureServers is the property: on random worlds,
// the record-based servers are indistinguishable from the closure-based
// ones, down to the kernel's event counts.
func TestRecordServersMatchClosureServers(t *testing.T) {
	var cov diffCoverage
	var failure error
	f := func(seed int64) bool {
		spec := genSpec(rand.New(rand.NewSource(seed)))
		if err := runDiff(spec, &cov); err != nil {
			failure = fmt.Errorf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatalf("%v\n%v", err, failure)
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int64{
		"downstream deliveries": cov.hops, "drops": cov.drops, "retransmits": cov.retransmits,
		"give-ups": cov.gaveUp, "queue-timeout sheds": cov.shed, "failed requests": cov.failed,
		"spare-thread escalations": cov.spare, "replies inside TryAccept": cov.echoed,
		"traced requests": cov.traced,
	} {
		if n == 0 {
			t.Errorf("the generated worlds never exercised %s", name)
		}
	}
}

// TestRecordServersReplyInsideTryAccept pins the re-entrant shape: every
// tier's last hop goes to an admission that replies inside TryAccept,
// clients resend from inside their reply, pools and tracing are on and
// the echo drops attempts. Delivered events must still carry their own
// request, and both sides must agree.
func TestRecordServersReplyInsideTryAccept(t *testing.T) {
	for _, async := range []bool{false, true} {
		spec := diffSpec{
			echo: true, echoDrop: 3, rto: 30 * time.Millisecond, maxAttempts: 2,
			tracing: true, perClient: 5,
			starts: []time.Duration{0, 0, time.Millisecond, 2 * time.Millisecond},
			thinks: []time.Duration{0, 0, 0, time.Millisecond},
		}
		for i := 0; i < 2; i++ {
			spec.tiers = append(spec.tiers, tierSpec{
				async: async, threads: 2, backlog: 2, liteQ: 3, node: i, pool: 1,
				progs: [][]stageSpec{
					{{cpu: time.Millisecond, call: true}},
					{{cpu: 0, call: true}, {cpu: 500 * time.Microsecond, call: i == 1}},
					{},
				},
			})
		}
		var cov diffCoverage
		if err := runDiff(spec, &cov); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if cov.echoed == 0 || cov.drops == 0 {
			t.Fatalf("async=%v: echoed %d attempts with %d drops, want both > 0", async, cov.echoed, cov.drops)
		}
	}
}
