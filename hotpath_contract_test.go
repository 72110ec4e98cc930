package ctqosim

// TestHotpathAllocsAgree is the cross-check at the heart of DESIGN.md §12:
// the static verdict (ctqo-lint's hotpath analyzer proves every
// //lint:hotpath function allocation-free, given the //lint:allow
// measurement boundaries) must agree with the dynamic one
// (testing.AllocsPerRun measures zero allocations per steady-state
// operation). The test scans the kernel packages for //lint:hotpath
// annotations, requires every annotated function to appear in the
// exerciser table below, re-runs the performance analyzers over those
// packages to pin the static half, and then drives each exerciser group
// through a warmed steady state asserting zero allocations per run — or
// exactly the group's allowance in hotpathGroupAllocs, which mirrors an
// allocs=N budget.
//
// Exercisers are shared across annotations: one event-loop drive covers
// the whole des kernel (Post reaches take, Step reaches release, heap
// operations reach the eventHeap methods), a Rearm drive covers timer
// re-arming, one clean delivery and one retransmission drive cover the
// simnet path, the nil tracer covers the span path, a warmed bounded
// Recorder covers the metrics path, Usage, a short Block and one job run
// to completion on a loaded node cover the cpu processor-sharing path,
// and one request through each server, with and without a downstream
// hop, covers the per-request record paths. The table keys make the
// coverage explicit so adding a //lint:hotpath annotation without
// deciding how to measure it fails this test.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/lint"
	"ctqosim/internal/lint/analysis"
	"ctqosim/internal/lint/analyzers"
	"ctqosim/internal/lint/loader"
	"ctqosim/internal/metrics"
	"ctqosim/internal/server"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
	"ctqosim/internal/workload"
)

// hotpathKernelDirs are the packages whose //lint:hotpath annotations the
// contract covers: the DES kernel, the simnet delivery path, the HDR
// record path, the disabled-tracer path, cpu processor sharing and the
// servers' per-request record paths.
var hotpathKernelDirs = []string{
	"internal/cpu",
	"internal/des",
	"internal/simnet",
	"internal/span",
	"internal/metrics",
	"internal/server",
}

// hotpathExercisers maps every annotated function (package.Receiver.Name
// or package.Name) to the exerciser group that drives it dynamically.
var hotpathExercisers = map[string]string{
	// DES kernel: Post/Run drive the whole pooled near-term scheduling
	// loop (enqueue, heap sifts, settle, fire); far 3 s/6 s/20 min posts
	// drive the timer-wheel path through placement, promotion, cascade
	// and the node pool.
	"des.Simulator.Post":    "des-event-loop",
	"des.Simulator.PostAt":  "des-event-loop",
	"des.Simulator.take":    "des-event-loop",
	"des.Simulator.release": "des-event-loop",
	"des.Simulator.enqueue": "des-event-loop",
	"des.Simulator.settle":  "des-event-loop",
	"des.Simulator.fire":    "des-event-loop",
	"des.Simulator.Step":    "des-event-loop",
	"des.Simulator.Run":     "des-event-loop",
	"des.Simulator.Cancel":  "des-cancel",
	"des.Simulator.Rearm":   "des-rearm",
	"des.heapNode.before":   "des-event-loop",
	"des.heap4.push":        "des-event-loop",
	"des.heap4.pop":         "des-event-loop",
	"des.heap4.siftDown":    "des-event-loop",
	"des.wheelNode.dead":    "des-wheel",
	"des.wheel.resident":    "des-wheel",
	"des.wheel.takeNode":    "des-wheel",
	"des.wheel.putNode":     "des-wheel",
	"des.wheel.place":       "des-wheel",
	"des.wheel.promote":     "des-wheel",
	"des.wheel.cascades":    "des-wheel",
	"des.wheel.spill":       "des-wheel",

	// simnet: clean delivery covers Send/deliverCall/attempt/hop; a
	// dropped-then-delivered call covers the retransmission machinery.
	"simnet.Transport.Send":        "simnet-clean-delivery",
	"simnet.deliverCall":           "simnet-clean-delivery",
	"simnet.Transport.attempt":     "simnet-clean-delivery",
	"simnet.Transport.hop":         "simnet-clean-delivery",
	"simnet.retransmitAttempt":     "simnet-retransmission",
	"simnet.Transport.rto":         "simnet-retransmission",
	"simnet.Transport.maxAttempts": "simnet-retransmission",
	"simnet.Transport.timeout":     "simnet-retransmission",

	// span: the contract prices the disabled-tracer path, which is the
	// one instrumented code pays when tracing is off.
	"span.Trace.Enabled":       "span-disabled-tracer",
	"span.Trace.Start":         "span-disabled-tracer",
	"span.Trace.End":           "span-disabled-tracer",
	"span.Trace.Annotate":      "span-disabled-tracer",
	"span.Tracer.StartRequest": "span-disabled-tracer",
	"span.Tracer.Finish":       "span-disabled-tracer",

	// metrics: a spilled HDR histogram and a warmed bounded Recorder.
	"metrics.HDRHistogram.Observe":   "metrics-hdr-record",
	"metrics.HDRHistogram.ObserveN":  "metrics-hdr-record",
	"metrics.HDRHistogram.bucketIdx": "metrics-hdr-record",
	"metrics.Recorder.Record":        "metrics-bounded-record",

	// cpu: Usage integrates progress through advance, which reads the
	// allocation the last reschedule water-filled; a Submit driven to its
	// completion reaches reschedule and its compaction, and a Block
	// changes the water-filling's inputs, so allocations runs again.
	"cpu.Node.advance":            "cpu-ps",
	"cpu.Node.reschedule":         "cpu-ps",
	"cpu.Node.allocInputsChanged": "cpu-ps",
	"cpu.Node.allocations":        "cpu-ps",

	// server: a warmed request from accept to reply with no downstream
	// hop covers the record's dispatch, stage, CPU-done and finish paths
	// at zero; a request with one hop adds the downstream reply, and its
	// one allocation is the hop's Call (step's allocs=1 budget).
	"server.AsyncServer.dispatch": "server-async-reply",
	"server.AsyncServer.runStage": "server-async-reply",
	"server.AsyncServer.finish":   "server-async-reply",
	"server.AsyncServer.step":     "server-async-hop",
	"server.AsyncServer.onReply":  "server-async-hop",
	"server.SyncServer.runStage":  "server-sync-reply",
	"server.SyncServer.finish":    "server-sync-reply",
	"server.SyncServer.step":      "server-sync-hop",
	"server.SyncServer.onReply":   "server-sync-hop",
}

// hotpathGroupAllocs is the allocations per run an exerciser group may
// make, where it is not zero: each hop drive allocates exactly that
// hop's downstream Call.
var hotpathGroupAllocs = map[string]float64{
	"server-async-hop": 1,
	"server-sync-hop":  1,
}

// scanHotpathAnnotations parses the kernel packages' sources and returns
// the qualified name of every function carrying a //lint:hotpath
// directive in its doc comment.
func scanHotpathAnnotations(t *testing.T) map[string]bool {
	t.Helper()
	keys := make(map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range hotpathKernelDirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s/%s: %v", dir, name, err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if strings.HasPrefix(c.Text, "//lint:hotpath") {
						keys[f.Name.Name+"."+funcKey(fd)] = true
					}
				}
			}
		}
	}
	return keys
}

// funcKey renders a declaration as Receiver.Name (or Name for package
// functions), matching the hotpathExercisers key form.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// runPerfLint runs the performance-analysis family (allocs, hotpath,
// deferloop) over the kernel packages and returns the findings. It
// mirrors cmd/ctqo-lint: the dependency closure is analyzed in order so
// cross-package AllocsFacts propagate, but only kernel-package findings
// are returned.
func runPerfLint(t *testing.T) []lint.Finding {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modDir, modPath, err := loader.FindModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	l := loader.New(modPath, modDir, "")
	patterns := make([]string, len(hotpathKernelDirs))
	for i, dir := range hotpathKernelDirs {
		patterns[i] = "./" + dir
	}
	paths, err := l.Expand(patterns)
	if err != nil {
		t.Fatal(err)
	}
	order, err := l.Closure(paths)
	if err != nil {
		t.Fatal(err)
	}
	requested := make(map[string]bool, len(paths))
	for _, p := range paths {
		requested[p] = true
	}
	active := []*analysis.Analyzer{analyzers.Allocs, analyzers.Hotpath, analyzers.Deferloop}
	facts := analysis.NewStore()
	var findings []lint.Finding
	for _, path := range order {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		fs, err := lint.RunPackage(l, pkg, active, modDir, facts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if requested[path] {
			findings = append(findings, fs...)
		}
	}
	lint.Sort(findings)
	return findings
}

// contractBump is the pooled-event callback of the des exerciser: a
// package function taking pointer-shaped arguments, as Post requires.
func contractBump(a0, a1 any) { *a0.(*int)++ }

// acceptAll is the always-admitting receiver of the clean-delivery
// exerciser.
type acceptAll struct{}

func (acceptAll) Name() string                { return "ok" }
func (acceptAll) TryAccept(*simnet.Call) bool { return true }

// replyAtOnce admits every call and replies inside TryAccept, as a
// downstream tier with no work would.
type replyAtOnce struct{}

func (replyAtOnce) Name() string { return "echo" }
func (replyAtOnce) TryAccept(call *simnet.Call) bool {
	call.OnReply(nil)
	return true
}

// serverReplyDrive returns one request from accept to reply on a
// single-worker server over an idle one-core VM, warmed once so the
// record pool, the job arrays and the event pool are grown. With hop set
// the program makes one downstream call between two CPU stages.
func serverReplyDrive(async, hop bool) func() {
	sim := des.NewSimulator(1)
	vm := cpu.NewNode(sim, "n", 1).AddVM("vm", 1, 1)
	tr := simnet.NewTransport(sim)
	program := server.Program{{CPU: time.Millisecond}}
	if hop {
		program = server.Program{
			{CPU: time.Millisecond, Call: &server.Downstream{Dest: replyAtOnce{}}},
			{CPU: time.Millisecond},
		}
	}
	plan := func(any) server.Program { return program }
	var srv simnet.Admission
	if async {
		srv = server.NewAsync(sim, vm, tr, plan, server.AsyncConfig{Name: "s", Workers: 1, LiteQDepth: 1})
	} else {
		srv = server.NewSync(sim, vm, tr, plan, server.SyncConfig{Name: "s", Threads: 1, Backlog: 1})
	}
	replied := false
	call := &simnet.Call{}
	onReply := func(any) { replied = true }
	drive := func() {
		replied = false
		*call = simnet.Call{OnReply: onReply}
		tr.Send(srv, call)
		for !replied && sim.Step() {
		}
		if !replied {
			panic("server exerciser: request never replied")
		}
	}
	drive()
	return drive
}

// dropOnce refuses one attempt when armed, then admits; arming it per run
// drives exactly one retransmission cycle.
type dropOnce struct{ armed bool }

func (*dropOnce) Name() string { return "flaky" }
func (d *dropOnce) TryAccept(*simnet.Call) bool {
	if d.armed {
		d.armed = false
		return false
	}
	return true
}

func TestHotpathAllocsAgree(t *testing.T) {
	// Static half: annotation set matches the exerciser table, and the
	// analyzers prove every annotated function clean.
	annotated := scanHotpathAnnotations(t)
	for key := range annotated {
		if _, ok := hotpathExercisers[key]; !ok {
			t.Errorf("%s is //lint:hotpath-annotated but has no exerciser: add it to hotpathExercisers with a dynamic drive", key)
		}
	}
	for key := range hotpathExercisers {
		if !annotated[key] {
			t.Errorf("hotpathExercisers lists %s but no //lint:hotpath annotation exists: stale table entry", key)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if findings := runPerfLint(t); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("static finding: %s", f.String())
		}
		t.Fatal("kernel packages are not statically allocation-clean")
	}

	// Dynamic half: each exerciser group warms its steady state, then
	// must measure zero allocations per run.
	groups := map[string]func() float64{
		"des-event-loop": func() float64 {
			sim := des.NewSimulator(1)
			n := 0
			for i := 0; i < 64; i++ { // warm the event pool
				sim.Post(time.Duration(i), contractBump, &n, nil)
			}
			sim.Run(sim.Now() + time.Second)
			return testing.AllocsPerRun(200, func() {
				for i := 0; i < 8; i++ {
					sim.Post(time.Duration(i)*time.Microsecond, contractBump, &n, nil)
				}
				sim.Run(sim.Now() + time.Millisecond)
			})
		},
		"des-wheel": func() float64 {
			// Posts at 5 ms (wheel level 0), 3 s (level 1, the RTO
			// shape), 30 s (level 2) and 20 min (overflow) exercise
			// every wheel container; Run then drags the promotion
			// horizon across them, driving promote, both spill levels
			// and the overflow rescue. One warm pass grows the node
			// pool and the heap's backing array.
			sim := des.NewSimulator(1)
			n := 0
			drive := func() {
				for i := 0; i < 8; i++ {
					sim.Post(5*time.Millisecond+time.Duration(i)*time.Microsecond, contractBump, &n, nil)
					sim.Post(3*time.Second+time.Duration(i)*time.Millisecond, contractBump, &n, nil)
					sim.Post(30*time.Second+time.Duration(i)*time.Millisecond, contractBump, &n, nil)
					sim.Post(20*time.Minute+time.Duration(i)*time.Millisecond, contractBump, &n, nil)
				}
				sim.Run(sim.Now() + 21*time.Minute)
			}
			drive()
			return testing.AllocsPerRun(200, drive)
		},
		"des-rearm": func() float64 {
			// One event walks every Rearm source state per run: fired
			// (near heap), pending (tombstoning its heap entry), and
			// cancelled (re-parked in the wheel); the run then drains the
			// tombstones and fires the live entry once.
			sim := des.NewSimulator(1)
			n := 0
			ev := des.NewEvent(func() { n++ })
			drive := func() {
				sim.Rearm(ev, time.Microsecond)
				sim.Rearm(ev, 2*time.Microsecond)
				sim.Cancel(ev)
				sim.Rearm(ev, 3*time.Millisecond)
				sim.Run(sim.Now() + 10*time.Millisecond)
			}
			drive()
			allocs := testing.AllocsPerRun(200, drive)
			if n != 202 {
				panic("des-rearm exerciser: the event did not fire exactly once per run")
			}
			return allocs
		},
		"des-cancel": func() float64 {
			sim := des.NewSimulator(1)
			ev := sim.Schedule(time.Hour, func() {})
			sim.Cancel(ev)
			return testing.AllocsPerRun(200, func() {
				sim.Cancel(ev) // idempotent re-cancel, the steady-state shape
			})
		},
		"simnet-clean-delivery": func() float64 {
			sim := des.NewSimulator(1)
			tr := simnet.NewTransport(sim)
			tr.Latency = time.Microsecond // force the pooled deliverCall hop
			call := &simnet.Call{}
			tr.Send(acceptAll{}, call) // warm the per-destination HopStats
			sim.Run(sim.Now() + time.Second)
			return testing.AllocsPerRun(200, func() {
				call.Attempts = 0
				tr.Send(acceptAll{}, call)
				sim.Run(sim.Now() + time.Second)
			})
		},
		"simnet-retransmission": func() float64 {
			sim := des.NewSimulator(1)
			tr := simnet.NewTransport(sim)
			dst := &dropOnce{}
			call := &simnet.Call{}
			dst.armed = true // warm: one drop grows DroppedBy's backing array
			tr.Send(dst, call)
			sim.Run(sim.Now() + time.Minute)
			return testing.AllocsPerRun(200, func() {
				call.Attempts = 0
				call.DroppedBy = call.DroppedBy[:0]
				dst.armed = true
				tr.Send(dst, call)
				sim.Run(sim.Now() + time.Minute)
			})
		},
		"span-disabled-tracer": func() float64 {
			var tracer *span.Tracer
			return testing.AllocsPerRun(200, func() {
				trace := tracer.StartRequest(1, "static")
				if trace.Enabled() {
					panic("nil tracer handed out an enabled trace")
				}
				id := trace.Start(span.KindService, "web", span.RootID)
				trace.Annotate(id, "noop")
				trace.End(id)
				tracer.Finish(trace)
			})
		},
		"metrics-hdr-record": func() float64 {
			// ExactCap -1 disables exact mode, so the histogram starts in
			// its spilled (steady-state) form.
			h := metrics.NewHDRHistogram(metrics.HDRConfig{ExactCap: -1})
			h.Observe(time.Millisecond)
			return testing.AllocsPerRun(200, func() {
				h.Observe(17 * time.Millisecond)
				h.ObserveN(3*time.Second, 2)
			})
		},
		"cpu-ps": func() float64 {
			// Three VMs, the first two capped below their fair share, so
			// the water-filling redistributes. Each VM runs 100 jobs of
			// 50–149 µs that resubmit themselves when they finish: the
			// VMs stay runnable at a steady job count, and completions
			// keep the node's timer within a millisecond, so the
			// tombstones its re-arms leave in the timer wheel are
			// reclaimed as the clock passes them. A pooled no-op event
			// moves the clock between Usage calls, so each advance
			// integrates a real interval. A short Block of the second VM
			// changes the water-filling's inputs twice, and a short job on
			// the uncapped VM is stepped to its completion, through
			// reschedule's compaction.
			sim := des.NewSimulator(1)
			node := cpu.NewNode(sim, "n", 2)
			vms := []*cpu.VM{
				node.AddVM("a", 4, 0.25),
				node.AddVM("b", 2, 0.5),
				node.AddVM("c", 1, 2),
			}
			for _, vm := range vms {
				for i := 0; i < 100; i++ {
					vm, demand := vm, time.Duration(50+i)*time.Microsecond
					var again func()
					again = func() { vm.Submit(demand, again) }
					vm.Submit(demand, again)
				}
			}
			n := 0
			finished := false
			finish := func() { finished = true }
			// Warm: 64 jobs finishing at one instant grow the
			// completed-callback buffer past any coincidence of the
			// looping jobs, and a few hundred drives grow the event and
			// wheel-node pools to their steady size.
			for i := 0; i < 64; i++ {
				vms[2].Submit(0, nil)
			}
			drive := func() {
				sim.Post(time.Microsecond, contractBump, &n, nil)
				sim.Step()
				for _, vm := range vms {
					vm.Usage()
				}
				vms[1].Block(20 * time.Microsecond)
				finished = false
				vms[2].Submit(10*time.Microsecond, finish)
				for !finished && sim.Step() {
				}
				if !finished {
					panic("cpu-ps exerciser: the short job never completed")
				}
			}
			for i := 0; i < 200; i++ {
				drive()
			}
			return testing.AllocsPerRun(200, drive)
		},
		"server-async-reply": func() float64 {
			return testing.AllocsPerRun(200, serverReplyDrive(true, false))
		},
		"server-sync-reply": func() float64 {
			return testing.AllocsPerRun(200, serverReplyDrive(false, false))
		},
		"server-async-hop": func() float64 {
			return testing.AllocsPerRun(200, serverReplyDrive(true, true))
		},
		"server-sync-hop": func() float64 {
			return testing.AllocsPerRun(200, serverReplyDrive(false, true))
		},
		"metrics-bounded-record": func() float64 {
			r := metrics.NewRecorder()
			r.Retention = metrics.RetainBounded
			r.HDR = metrics.HDRConfig{ExactCap: -1}
			r.SeriesWindow = 50 * time.Millisecond
			fast := &workload.Request{
				Class:     workload.ClassStatic,
				Submitted: time.Second,
				Completed: time.Second + 40*time.Millisecond,
			}
			vlrt := &workload.Request{
				Class:     workload.ClassStatic,
				Submitted: time.Second,
				Completed: 5 * time.Second,
				Drops:     []string{"db"},
			}
			r.Record(fast) // warm: aggregates, class accumulator, VLRT window
			r.Record(vlrt)
			return testing.AllocsPerRun(200, func() {
				r.Record(fast)
				r.Record(vlrt)
			})
		},
	}
	for key, group := range hotpathExercisers {
		if _, ok := groups[group]; !ok {
			t.Fatalf("%s names exerciser group %q, which has no drive", key, group)
		}
	}
	for name, drive := range groups {
		name, drive := name, drive
		t.Run(name, func(t *testing.T) {
			want := hotpathGroupAllocs[name]
			if allocs := drive(); allocs != want {
				t.Errorf("%s: %.1f allocs/run, want %.0f — the static verdict and the dynamic measurement disagree", name, allocs, want)
			}
		})
	}
}
