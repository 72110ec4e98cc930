package main

import (
	"runtime"
	"slices"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/metrics"
	"ctqosim/internal/server"
	"ctqosim/internal/simnet"
	"ctqosim/internal/workload"
)

// layerProbe times one operation of one layer, called directly through
// the layer's public constructors with nothing else running.
type layerProbe struct {
	name string
	// op builds the layer's state and returns one operation on it.
	op func() func()
}

var layerProbes = []layerProbe{
	{"des.post", probeDESPost},
	{"des.schedule", probeDESSchedule},
	{"cpu.submit.n1", probeCPUSubmit(1)},
	{"cpu.submit.n10", probeCPUSubmit(10)},
	{"cpu.submit.n100", probeCPUSubmit(100)},
	{"cpu.submit.n1000", probeCPUSubmit(1000)},
	{"simnet.send.deliver", probeSendDeliver},
	{"simnet.send.drop", probeSendDrop},
	{"server.reply.sync", probeServerReply(true)},
	{"server.reply.async", probeServerReply(false)},
	{"workload.cycle", probeWorkloadCycle},
	{"metrics.record.all", probeRecord(metrics.RetainAll)},
	{"metrics.record.bounded", probeRecord(metrics.RetainBounded)},
}

const (
	// probeRound is the least host time one timed round of a probe takes.
	probeRound = 20 * time.Millisecond
	// probeRounds is how many timed rounds a probe's median is taken over.
	probeRounds = 5
)

// runProbe returns the median nanoseconds per operation over probeRounds
// rounds, and the heap allocations per operation over all of them.
func runProbe(p layerProbe) (nsPerOp, allocsPerOp float64) {
	op := p.op()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(start) >= probeRound {
			break
		}
		n *= 2
	}
	var before, after runtime.MemStats
	ns := make([]float64, probeRounds)
	runtime.ReadMemStats(&before)
	for r := range ns {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		ns[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&after)
	slices.Sort(ns)
	return ns[probeRounds/2], float64(after.Mallocs-before.Mallocs) / float64(probeRounds*n)
}

// probeDESPost is one pooled typed event: Post, then fire it.
func probeDESPost() func() {
	sim := des.NewSimulator(1)
	fire := func(a0, a1 any) {}
	return func() {
		sim.Post(time.Microsecond, fire, nil, nil)
		sim.Step()
	}
}

// probeDESSchedule is one closure event: Schedule, then fire it.
func probeDESSchedule() func() {
	sim := des.NewSimulator(1)
	fire := func() {}
	return func() {
		sim.Schedule(time.Microsecond, fire)
		sim.Step()
	}
}

// probeCPUSubmit is VM.Submit of a 1 ms job through its completion while
// the VM's processor sharing serves n jobs in all; the n-1 others never
// finish within the probe.
func probeCPUSubmit(n int) func() func() {
	return func() func() {
		sim := des.NewSimulator(1)
		vm := cpu.NewNode(sim, "probe", 1).AddVM("probe-vm", 1, 1)
		for i := 1; i < n; i++ {
			vm.Submit(1000*time.Hour, func() {})
		}
		var done bool
		finish := func() { done = true }
		return func() {
			done = false
			vm.Submit(time.Millisecond, finish)
			for !done && sim.Step() {
			}
		}
	}
}

// admission is a receiver that refuses the first attempt of each call
// when dropFirst is set and replies at once to every call it accepts.
type admission struct {
	dropFirst bool
}

func (a *admission) Name() string { return "probe" }

func (a *admission) TryAccept(call *simnet.Call) bool {
	if a.dropFirst && call.Attempts == 1 {
		return false
	}
	if call.OnReply != nil {
		call.OnReply(nil)
	}
	return true
}

// probeSendDeliver is one Transport.Send delivered on the first attempt.
func probeSendDeliver() func() {
	tr := simnet.NewTransport(des.NewSimulator(1))
	dst := &admission{}
	call := &simnet.Call{}
	return func() {
		*call = simnet.Call{}
		tr.Send(dst, call)
	}
}

// probeSendDrop is one Transport.Send whose first attempt is dropped:
// the drop, the retransmission timer firing, and the delivered retry.
func probeSendDrop() func() {
	sim := des.NewSimulator(1)
	tr := simnet.NewTransport(sim)
	dst := &admission{dropFirst: true}
	call := &simnet.Call{}
	return func() {
		*call = simnet.Call{}
		tr.Send(dst, call)
		sim.Step()
	}
}

// probeServerReply is one request from accept to reply on an idle
// single-core VM: a 1 ms CPU stage and no downstream call.
func probeServerReply(sync bool) func() func() {
	return func() func() {
		sim := des.NewSimulator(1)
		vm := cpu.NewNode(sim, "probe", 1).AddVM("probe-vm", 1, 1)
		tr := simnet.NewTransport(sim)
		program := server.Program{{CPU: time.Millisecond}}
		plan := func(any) server.Program { return program }
		var srv simnet.Admission
		if sync {
			srv = server.NewSync(sim, vm, tr, plan, server.SyncConfig{Name: "probe", Threads: 1, Backlog: 1})
		} else {
			srv = server.NewAsync(sim, vm, tr, plan, server.AsyncConfig{Name: "probe", Workers: 1, LiteQDepth: 1})
		}
		var replied bool
		onReply := func(any) { replied = true }
		call := &simnet.Call{}
		return func() {
			replied = false
			*call = simnet.Call{OnReply: onReply}
			tr.Send(srv, call)
			for !replied && sim.Step() {
			}
		}
	}
}

// probeWorkloadCycle is one closed-loop cycle of a single client: think,
// issue the request, get the reply, record it.
func probeWorkloadCycle() func() {
	sim := des.NewSimulator(1)
	front := workload.Frontend{Transport: simnet.NewTransport(sim), Target: &admission{}}
	cl := workload.NewClosedLoop(sim, front, workload.ClosedLoopConfig{
		Clients:   1,
		ThinkTime: time.Millisecond,
		Sink:      workload.SinkFunc(func(*workload.Request) {}),
	})
	cl.Start()
	return func() {
		n := cl.Completed()
		for cl.Completed() == n && sim.Step() {
		}
	}
}

// recorderRun is how many requests a probed Recorder holds before the
// probe starts a fresh one: about one fig3 run's worth, so RetainAll's
// append is measured at run size without growing without bound.
const recorderRun = 1 << 16

// probeRecord is one Recorder.Record of a completed request.
func probeRecord(retention metrics.Retention) func() func() {
	return func() func() {
		var rec *metrics.Recorder
		req := &workload.Request{
			Class:     workload.Class{Name: "ViewStory"},
			Completed: 40 * time.Millisecond,
		}
		n := 0
		return func() {
			if n%recorderRun == 0 {
				rec = metrics.NewRecorder()
				rec.Retention = retention
			}
			n++
			rec.Record(req)
		}
	}
}
