package server

import (
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// AsyncConfig parameterizes an event-driven server.
type AsyncConfig struct {
	// Name identifies the server in statistics and traces.
	Name string
	// Workers is the number of event-loop threads executing CPU bursts
	// (e.g. a handful of Nginx workers, or InnoDB's thread concurrency of
	// 8 for XMySQL).
	Workers int
	// LiteQDepth bounds the lightweight queue of admitted-but-unfinished
	// requests: 65535 for Nginx/XTomcat (all ephemeral ports), 2000 for
	// XMySQL's InnoDB wait queue.
	LiteQDepth int
	// OverheadPerThread inflates CPU demand with the number of busy
	// workers. With a handful of workers the effect is negligible — that
	// asymmetry versus thousands of sync threads is the point of Fig. 12.
	OverheadPerThread float64
}

// AsyncServer is an event-driven server with continuation-passing
// downstream calls. Each admitted request is one pooled asyncReq record,
// which carries it through ready queue, CPU bursts and downstream hops
// (DESIGN.md §17).
type AsyncServer struct {
	sim       *des.Simulator
	vm        *cpu.VM
	transport *simnet.Transport
	plan      PlanFunc
	cfg       AsyncConfig

	busy     int // workers executing a CPU burst
	inFlight int // admitted requests not yet replied
	ready    []*asyncReq
	free     *asyncReq // freelist of finished records
	stats    Stats
}

// asyncReq is the record of one admitted request: its call, its program
// and how far it got. Its two callbacks are bound once, when the record
// is created, and survive recycling: step handles CPU done, pool granted
// and give-up, selected by phase; onReply takes the downstream reply.
type asyncReq struct {
	call  *simnet.Call
	prog  Program
	stage int
	phase phase
	// The open spans: wait is the queue wait or the pool wait, svc the
	// current CPU burst, ds the current downstream call.
	wait, svc, ds span.ID

	step    func()
	onReply func(any)
	next    *asyncReq
}

var _ Server = (*AsyncServer)(nil)

// NewAsync creates an asynchronous server running on vm.
func NewAsync(sim *des.Simulator, vm *cpu.VM, transport *simnet.Transport, plan PlanFunc, cfg AsyncConfig) *AsyncServer {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.LiteQDepth < 1 {
		cfg.LiteQDepth = 1
	}
	return &AsyncServer{sim: sim, vm: vm, transport: transport, plan: plan, cfg: cfg}
}

// Name implements simnet.Admission.
func (a *AsyncServer) Name() string { return a.cfg.Name }

// VM implements Server.
func (a *AsyncServer) VM() *cpu.VM { return a.vm }

// Stats implements Server.
func (a *AsyncServer) Stats() Stats { return a.stats }

// Depth implements Server: every admitted, unfinished request is held in
// the lightweight queue (possibly parked waiting for a downstream reply).
func (a *AsyncServer) Depth() int { return a.inFlight }

// InService implements Server.
func (a *AsyncServer) InService() int { return a.busy }

// MaxSysQDepth implements Server.
func (a *AsyncServer) MaxSysQDepth() int { return a.cfg.LiteQDepth }

// Ready returns the number of runnable work items waiting for a worker.
func (a *AsyncServer) Ready() int { return len(a.ready) }

// TryAccept implements simnet.Admission: admit unless the lightweight
// queue is exhausted.
func (a *AsyncServer) TryAccept(call *simnet.Call) bool {
	if a.inFlight >= a.cfg.LiteQDepth {
		return false
	}
	a.inFlight++
	a.stats.Accepted++
	r := a.take()
	r.call = call
	r.prog = a.plan(call.Payload)
	a.enqueueWait(r)
	return true
}

// take pops a record off the freelist, creating one — and binding its
// callbacks — only while the pool warms up to the peak number of
// requests in flight.
func (a *AsyncServer) take() *asyncReq {
	r := a.free
	if r == nil {
		r = &asyncReq{}
		r.step = func() { a.step(r) }
		r.onReply = func(reply any) { a.onReply(r, reply) }
		return r
	}
	a.free = r.next
	r.next = nil
	return r
}

// put wipes a finished record, keeping its bound callbacks, and pushes it
// onto the freelist.
func (a *AsyncServer) put(r *asyncReq) {
	*r = asyncReq{step: r.step, onReply: r.onReply, next: a.free}
	a.free = r
}

// enqueueWait adds the record to the ready queue with a queue-wait span
// covering the time it sits there before a worker picks it up, and
// dispatches if a worker is free. Continuations (downstream replies)
// re-enter through here as well, so a request that bounces between
// bursts accumulates every wait; they are never dropped — LiteQDepth
// bounds admissions, not continuations. With tracing off the span ID is
// zero — identical dynamics either way.
func (a *AsyncServer) enqueueWait(r *asyncReq) {
	r.wait = r.call.Trace.Start(span.KindQueueWait, a.cfg.Name, r.call.SpanID)
	a.ready = append(a.ready, r) //lint:allow allocs amortized: the ready queue grows to its peak length, then is reused
	a.dispatch()
}

// dispatch hands ready records to free workers in FIFO order.
//
//lint:hotpath async record path
func (a *AsyncServer) dispatch() {
	for a.busy < a.cfg.Workers && len(a.ready) > 0 {
		r := a.ready[0]
		copy(a.ready, a.ready[1:])
		a.ready[len(a.ready)-1] = nil
		a.ready = a.ready[:len(a.ready)-1]
		a.busy++
		r.call.Trace.End(r.wait)
		r.wait = 0
		a.runStage(r)
	}
}

// dispatchAsync is the pooled-event form of dispatch for the *AsyncServer
// in a0.
func dispatchAsync(a0, _ any) { a0.(*AsyncServer).dispatch() }

// runStage executes the record's current stage: the worker is held only
// for the CPU burst; a downstream call parks the request and frees the
// worker.
//
//lint:hotpath async record path
func (a *AsyncServer) runStage(r *asyncReq) {
	if r.stage >= len(r.prog) {
		a.release()
		a.finish(r, r.call.Payload, false)
		return
	}
	// One service span per CPU burst: an async request's service time is
	// the sum of its bursts, with the waits between them showing up as
	// queue-wait and downstream spans instead.
	r.svc = r.call.Trace.Start(span.KindService, a.cfg.Name, r.call.SpanID)
	r.phase = phaseCPU
	a.vm.Submit(a.inflate(r.prog[r.stage].CPU), r.step)
}

// step is the record's callback for everything but a downstream reply.
// Every path that issues the current stage's downstream call ends at its
// tail, which allocates that hop's Call.
//
//lint:hotpath allocs=1 the per-hop downstream Call
func (a *AsyncServer) step(r *asyncReq) {
	switch r.phase {
	case phaseCPU:
		r.call.Trace.End(r.svc)
		d := r.prog[r.stage].Call
		if d == nil {
			a.release()
			r.stage++
			a.enqueueWait(r)
			return
		}
		r.ds = r.call.Trace.Start(span.KindDownstream, d.Dest.Name(), r.call.SpanID)
		// The worker is released before the call is issued; the reply
		// arrives as a continuation. This is the doGet/eventHandler split
		// of the paper's Fig. 14.
		a.release()
		if d.Pool != nil {
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
		a.finish(r, Failure{Server: d.Dest.Name()}, true) //lint:allow allocs give-up path: retransmissions exhausted, never on a clean hop
		return
	case phaseQueued:
		panic("server: async request records never wait in an accept queue")
	}
	// Issue the hop, closing the pool wait if there was one.
	r.call.Trace.End(r.wait)
	r.wait = 0
	r.phase = phaseCall
	sub := &simnet.Call{Payload: r.call.Payload, Trace: r.call.Trace, SpanID: r.ds,
		OnReply: r.onReply, OnGiveUp: r.step}
	a.transport.Send(r.prog[r.stage].Call.Dest, sub)
}

// onReply is the record's callback for the current stage's downstream
// reply: a Failure fails the request, anything else queues the next
// stage.
//
//lint:hotpath async record path
func (a *AsyncServer) onReply(r *asyncReq, reply any) {
	if pool := r.prog[r.stage].Call.Pool; pool != nil {
		pool.Release()
	}
	r.call.Trace.End(r.ds)
	if _, ok := reply.(Failure); ok {
		a.finish(r, reply, true)
		return
	}
	r.stage++
	a.enqueueWait(r)
}

// release frees the caller's worker. Dispatch is deferred to a fresh
// event so the released worker picks up queued work after the current
// call stack unwinds.
func (a *AsyncServer) release() {
	a.busy--
	a.sim.Post(0, dispatchAsync, a, nil)
}

// finish replies upstream and recycles the record. The record goes back
// only once replyNow returns: the reply may re-enter the server and
// admit a new request, which must not be handed a record still in use.
//
//lint:hotpath async record path
func (a *AsyncServer) finish(r *asyncReq, payload any, failed bool) {
	if failed {
		a.stats.Failed++
	} else {
		a.stats.Completed++
	}
	a.inFlight--
	replyNow(r.call, payload)
	a.put(r)
}

func (a *AsyncServer) inflate(d time.Duration) time.Duration {
	if a.cfg.OverheadPerThread <= 0 {
		return d
	}
	factor := 1 + a.cfg.OverheadPerThread*float64(a.busy)
	return time.Duration(float64(d) * factor)
}
