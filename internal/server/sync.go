package server

import (
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// SyncConfig parameterizes a synchronous RPC server.
type SyncConfig struct {
	// Name identifies the server in statistics and traces.
	Name string
	// Threads is the request thread pool size (Apache 150, Tomcat 165,
	// MySQL 100 in the paper).
	Threads int
	// Backlog is the TCP accept-queue capacity (128 in the paper's
	// kernel). Threads+Backlog is the MaxSysQDepth.
	Backlog int
	// SpareThreads, if positive, models Apache's spare-process escalation:
	// after the pool stays saturated for SpareAfter, a second process adds
	// SpareThreads more threads (the paper's Fig. 3b second plateau at
	// 428 = 278 + 150).
	SpareThreads int
	// SpareAfter is the sustained-saturation delay before escalation.
	// Zero with SpareThreads>0 defaults to 10 seconds.
	SpareAfter time.Duration
	// OverheadPerThread inflates every CPU demand by
	// (1 + OverheadPerThread × busyThreads), modeling context-switch and
	// scheduling overhead at high thread counts (the paper's Fig. 12).
	OverheadPerThread float64
	// QueueTimeout, if positive, sheds requests that wait in the accept
	// queue longer than this: they are answered with a Failure instead of
	// holding the queue — the fail-fast alternative to the paper's
	// enlarge-the-buffers discussion (Section V-E). Zero disables
	// shedding.
	QueueTimeout time.Duration
}

const defaultSpareAfter = 10 * time.Second

// SyncServer is a thread-per-request RPC server. Each admitted request
// is one pooled syncReq record, which carries it through the accept
// queue, its thread-held stages and its downstream hops (DESIGN.md §17).
type SyncServer struct {
	sim       *des.Simulator
	vm        *cpu.VM
	transport *simnet.Transport
	plan      PlanFunc
	cfg       SyncConfig

	busy       int
	spareAdded bool
	spareArmed bool
	queue      []*syncReq
	free       *syncReq // freelist of finished records
	stats      Stats
	shed       int64
}

// syncReq is the record of one admitted request: its call, its program
// and how far it got. Its two callbacks are bound once, when the record
// is created, and survive recycling: step handles CPU done, pool
// granted, give-up and queue timeout, selected by phase; onReply takes
// the downstream reply.
type syncReq struct {
	call  *simnet.Call
	prog  Program
	stage int
	phase phase
	// The open spans: wait is the accept-queue wait or the pool wait, svc
	// the thread-held visit, ds the current downstream call.
	wait, svc, ds span.ID
	// timer is the QueueTimeout shedding timer, created on the record's
	// first timed queueing and re-armed on every later one.
	timer *des.Event

	step    func()
	onReply func(any)
	next    *syncReq
}

var _ Server = (*SyncServer)(nil)

// NewSync creates a synchronous server running on vm, planning request
// programs with plan and issuing downstream calls over transport.
func NewSync(sim *des.Simulator, vm *cpu.VM, transport *simnet.Transport, plan PlanFunc, cfg SyncConfig) *SyncServer {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Backlog < 0 {
		cfg.Backlog = 0
	}
	if cfg.SpareThreads > 0 && cfg.SpareAfter <= 0 {
		cfg.SpareAfter = defaultSpareAfter
	}
	return &SyncServer{sim: sim, vm: vm, transport: transport, plan: plan, cfg: cfg}
}

// Name implements simnet.Admission.
func (s *SyncServer) Name() string { return s.cfg.Name }

// VM implements Server.
func (s *SyncServer) VM() *cpu.VM { return s.vm }

// Stats implements Server.
func (s *SyncServer) Stats() Stats { return s.stats }

// Depth implements Server.
func (s *SyncServer) Depth() int { return s.busy + len(s.queue) }

// InService implements Server.
func (s *SyncServer) InService() int { return s.busy }

// MaxSysQDepth implements Server. It reflects the current thread count, so
// it rises when the spare process has spawned.
func (s *SyncServer) MaxSysQDepth() int { return s.threadCap() + s.cfg.Backlog }

// Queued returns the number of requests waiting in the accept queue.
func (s *SyncServer) Queued() int { return len(s.queue) }

// TryAccept implements simnet.Admission: admit to a free thread, else to
// the accept queue, else drop.
func (s *SyncServer) TryAccept(call *simnet.Call) bool {
	if s.busy < s.threadCap() {
		s.stats.Accepted++
		r := s.take()
		r.call = call
		s.startOnThread(r)
		return true
	}
	s.maybeArmSpare()
	if len(s.queue) < s.cfg.Backlog {
		s.stats.Accepted++
		r := s.take()
		r.call = call
		r.wait = call.Trace.Start(span.KindQueueWait, s.cfg.Name, call.SpanID)
		if s.cfg.QueueTimeout > 0 {
			r.phase = phaseQueued
			if r.timer == nil {
				r.timer = des.NewEvent(r.step)
			}
			s.sim.Rearm(r.timer, s.cfg.QueueTimeout)
		}
		s.queue = append(s.queue, r)
		return true
	}
	return false
}

// take pops a record off the freelist, creating one — and binding its
// callbacks — only while the pool warms up to the peak number of
// requests held.
func (s *SyncServer) take() *syncReq {
	r := s.free
	if r == nil {
		r = &syncReq{}
		r.step = func() { s.step(r) }
		r.onReply = func(reply any) { s.onReply(r, reply) }
		return r
	}
	s.free = r.next
	r.next = nil
	return r
}

// put wipes a finished record, keeping its bound callbacks and its timer
// (never pending here), and pushes it onto the freelist.
func (s *SyncServer) put(r *syncReq) {
	*r = syncReq{timer: r.timer, step: r.step, onReply: r.onReply, next: s.free}
	s.free = r
}

// Shed returns the number of requests dropped from the accept queue by
// the QueueTimeout policy.
func (s *SyncServer) Shed() int64 { return s.shed }

// shedQueued removes a timed-out record from the queue and fails it fast.
func (s *SyncServer) shedQueued(r *syncReq) {
	for i, q := range s.queue {
		if q != r {
			continue
		}
		copy(s.queue[i:], s.queue[i+1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		s.shed++
		s.stats.Failed++
		r.call.Trace.End(r.wait)
		r.call.Trace.Annotate(r.wait, "shed by queue timeout")
		replyNow(r.call, Failure{Server: s.cfg.Name}) //lint:allow allocs shed path: one Failure reply per request shed
		s.put(r)
		return
	}
}

func (s *SyncServer) threadCap() int {
	if s.spareAdded {
		return s.cfg.Threads + s.cfg.SpareThreads
	}
	return s.cfg.Threads
}

// maybeArmSpare schedules the spare-process check the first time the pool
// saturates. If the pool is still saturated when the check fires, the spare
// threads come online and absorb the accept queue.
func (s *SyncServer) maybeArmSpare() {
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

// startOnThread puts the record on a thread and runs its first stage.
func (s *SyncServer) startOnThread(r *syncReq) {
	s.busy++
	r.prog = s.plan(r.call.Payload)
	// The service span covers the whole thread-held visit; downstream and
	// retransmission children subtract out of its exclusive time.
	r.svc = r.call.Trace.Start(span.KindService, s.cfg.Name, r.call.SpanID)
	s.runStage(r)
}

// runStage executes the record's current stage: CPU burst, then the
// optional downstream call, then the next stage. The thread (busy slot)
// is held throughout, including downstream retransmission waits.
//
//lint:hotpath sync record path
func (s *SyncServer) runStage(r *syncReq) {
	if r.stage >= len(r.prog) {
		s.finish(r, r.call.Payload, false)
		return
	}
	r.phase = phaseCPU
	s.vm.Submit(s.inflate(r.prog[r.stage].CPU), r.step)
}

// step is the record's callback for everything but a downstream reply.
// Every path that issues the current stage's downstream call ends at its
// tail, which allocates that hop's Call.
//
//lint:hotpath allocs=1 the per-hop downstream Call
func (s *SyncServer) step(r *syncReq) {
	switch r.phase {
	case phaseCPU:
		d := r.prog[r.stage].Call
		if d == nil {
			r.stage++
			s.runStage(r)
			return
		}
		r.ds = r.call.Trace.Start(span.KindDownstream, d.Dest.Name(), r.svc)
		if d.Pool != nil {
			// The thread waits (still held) until a connection frees up.
			r.wait = r.call.Trace.Start(span.KindPoolWait, d.Dest.Name(), r.ds)
			r.phase = phasePool
			d.Pool.Acquire(r.step)
			return
		}
	case phasePool:
		// Connection granted: send below.
	case phaseCall:
		d := r.prog[r.stage].Call
		if d.Pool != nil {
			d.Pool.Release()
		}
		r.call.Trace.End(r.ds)
		s.finish(r, Failure{Server: d.Dest.Name()}, true) //lint:allow allocs give-up path: retransmissions exhausted, never on a clean hop
		return
	case phaseQueued:
		s.shedQueued(r)
		return
	}
	// Issue the hop, closing the pool wait if there was one.
	r.call.Trace.End(r.wait)
	r.wait = 0
	r.phase = phaseCall
	sub := &simnet.Call{Payload: r.call.Payload, Trace: r.call.Trace, SpanID: r.ds,
		OnReply: r.onReply, OnGiveUp: r.step}
	s.transport.Send(r.prog[r.stage].Call.Dest, sub)
}

// onReply is the record's callback for the current stage's downstream
// reply: a Failure fails the request, anything else runs the next stage.
//
//lint:hotpath sync record path
func (s *SyncServer) onReply(r *syncReq, reply any) {
	if pool := r.prog[r.stage].Call.Pool; pool != nil {
		pool.Release()
	}
	r.call.Trace.End(r.ds)
	if _, ok := reply.(Failure); ok {
		s.finish(r, reply, true)
		return
	}
	r.stage++
	s.runStage(r)
}

// finish replies upstream, releases the thread, pulls the next queued
// request onto it and recycles the record. The record goes back only
// once replyNow returns: the reply may re-enter the server and admit a
// new request, which must not be handed a record still in use.
//
//lint:hotpath sync record path
func (s *SyncServer) finish(r *syncReq, payload any, failed bool) {
	if failed {
		s.stats.Failed++
	} else {
		s.stats.Completed++
	}
	s.busy--
	r.call.Trace.End(r.svc)
	s.drainQueue()
	replyNow(r.call, payload)
	s.put(r)
}

// drainQueue moves queued records onto free threads in FIFO order,
// cancelling their shedding timers.
func (s *SyncServer) drainQueue() {
	for s.busy < s.threadCap() && len(s.queue) > 0 {
		r := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		s.sim.Cancel(r.timer)
		r.call.Trace.End(r.wait)
		r.wait = 0
		s.startOnThread(r)
	}
}

// inflate applies the thread-management overhead model of Fig. 12.
func (s *SyncServer) inflate(d time.Duration) time.Duration {
	if s.cfg.OverheadPerThread <= 0 {
		return d
	}
	factor := 1 + s.cfg.OverheadPerThread*float64(s.busy)
	return time.Duration(float64(d) * factor)
}
