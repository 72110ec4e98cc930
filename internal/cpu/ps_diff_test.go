package cpu

// Differential check of the processor-sharing model against a reference
// kept verbatim from the model before its struct-of-arrays rewrite: one
// *Job per submission, fresh allocation slices on every call, a closure
// per completion timer and one division per job. Both sides run the same
// decoded Submit/Block/Stall/Resume/SetPolicy/Usage trace on their own
// simulator; the completion logs and every Usage snapshot must agree bit
// for bit, and so must the kernel's event counts. Random traces come from
// testing/quick and the fuzzer; TestPSDifferentialCases adds built traces
// for states they rarely reach.

import (
	"fmt"
	"math"
	"os"
	"testing"
	"testing/quick"
	"time"

	"ctqosim/internal/des"
)

const refDoneEpsilon = 1e-9

type refNode struct {
	sim    *des.Simulator
	name   string
	cores  float64
	policy Policy
	vms    []*refVM

	lastUpdate time.Duration
	completion *des.Event
}

func newRefNode(sim *des.Simulator, name string, cores float64) *refNode {
	if cores <= 0 {
		cores = 1
	}
	return &refNode{sim: sim, name: name, cores: cores, policy: WeightedVM}
}

func (n *refNode) SetPolicy(p Policy) {
	n.advance()
	n.policy = p
	n.reschedule()
}

func (n *refNode) AddVM(name string, weight, vcpus float64) *refVM {
	if weight <= 0 {
		weight = 1
	}
	if vcpus <= 0 {
		vcpus = 1
	}
	vm := &refVM{node: n, name: name, weight: weight, vcpus: vcpus}
	n.vms = append(n.vms, vm)
	return vm
}

type refVM struct {
	node   *refNode
	name   string
	weight float64
	vcpus  float64

	jobs    []*refJob
	blocked int

	runnableTime time.Duration
	blockedTime  time.Duration
	cpuSeconds   float64
}

func (v *refVM) ActiveJobs() int { return len(v.jobs) }

func (v *refVM) Usage() Usage {
	v.node.advance()
	return Usage{
		Runnable:   v.runnableTime,
		Blocked:    v.blockedTime,
		CPUSeconds: v.cpuSeconds,
	}
}

type refJob struct {
	vm        *refVM
	remaining float64
	done      func()
	finished  bool
}

func (v *refVM) Submit(demand time.Duration, done func()) *refJob {
	v.node.advance()
	j := &refJob{vm: v, remaining: demand.Seconds(), done: done}
	if j.remaining <= refDoneEpsilon {
		j.remaining = 2 * refDoneEpsilon
	}
	v.jobs = append(v.jobs, j)
	v.node.reschedule()
	return j
}

func (v *refVM) Block(d time.Duration) {
	if d <= 0 {
		return
	}
	v.node.advance()
	v.blocked++
	v.node.sim.Schedule(d, func() {
		v.node.advance()
		v.blocked--
		v.node.reschedule()
	})
	v.node.reschedule()
}

func (v *refVM) Stall() {
	v.node.advance()
	v.blocked++
	v.node.reschedule()
}

func (v *refVM) Resume() {
	if v.blocked == 0 {
		return
	}
	v.node.advance()
	v.blocked--
	v.node.reschedule()
}

func (n *refNode) advance() {
	now := n.sim.Now()
	elapsed := (now - n.lastUpdate).Seconds()
	if elapsed <= 0 {
		n.lastUpdate = now
		return
	}
	alloc := n.allocations()
	for i, vm := range n.vms {
		if vm.blocked > 0 {
			vm.blockedTime += now - n.lastUpdate
			continue
		}
		if len(vm.jobs) == 0 {
			continue
		}
		vm.runnableTime += now - n.lastUpdate
		rate := alloc[i] / float64(len(vm.jobs))
		for _, j := range vm.jobs {
			j.remaining -= rate * elapsed
		}
		vm.cpuSeconds += alloc[i] * elapsed
	}
	n.lastUpdate = now
}

func (n *refNode) reschedule() {
	var completed []*refJob
	for _, vm := range n.vms {
		if vm.blocked > 0 {
			continue
		}
		kept := vm.jobs[:0]
		for _, j := range vm.jobs {
			if j.remaining <= refDoneEpsilon {
				j.finished = true
				completed = append(completed, j)
			} else {
				kept = append(kept, j)
			}
		}
		for i := len(kept); i < len(vm.jobs); i++ {
			vm.jobs[i] = nil
		}
		vm.jobs = kept
	}

	if n.completion != nil {
		n.sim.Cancel(n.completion)
		n.completion = nil
	}
	alloc := n.allocations()
	next := -1.0
	for i, vm := range n.vms {
		if vm.blocked > 0 || len(vm.jobs) == 0 || alloc[i] <= 0 {
			continue
		}
		rate := alloc[i] / float64(len(vm.jobs))
		for _, j := range vm.jobs {
			t := j.remaining / rate
			if next < 0 || t < next {
				next = t
			}
		}
	}
	if next >= 0 {
		n.completion = n.sim.Schedule(refDurationFromSeconds(next), func() {
			n.completion = nil
			n.advance()
			n.reschedule()
		})
	}

	for _, j := range completed {
		if j.done != nil {
			j.done()
		}
	}
}

func (n *refNode) allocations() []float64 {
	alloc := make([]float64, len(n.vms))
	remaining := n.cores
	active := make([]int, 0, len(n.vms))
	for i, vm := range n.vms {
		if vm.blocked == 0 && len(vm.jobs) > 0 {
			active = append(active, i)
		}
	}
	effWeight := func(vm *refVM) float64 {
		if n.policy == JobProportional {
			return vm.weight * float64(len(vm.jobs))
		}
		return vm.weight
	}
	for len(active) > 0 && remaining > 1e-12 {
		var totalWeight float64
		for _, i := range active {
			totalWeight += effWeight(n.vms[i])
		}
		capped := false
		stillActive := active[:0]
		for _, i := range active {
			vm := n.vms[i]
			share := remaining * effWeight(vm) / totalWeight
			if alloc[i]+share >= vm.vcpus {
				capped = true
				alloc[i] = vm.vcpus
			} else {
				stillActive = append(stillActive, i)
			}
		}
		if !capped {
			for _, i := range stillActive {
				vm := n.vms[i]
				alloc[i] += remaining * effWeight(vm) / totalWeight
			}
			break
		}
		used := 0.0
		for i := range n.vms {
			found := false
			for _, a := range stillActive {
				if a == i {
					found = true
					break
				}
			}
			if !found {
				used += alloc[i]
			} else {
				alloc[i] = 0
			}
		}
		remaining = n.cores - used
		active = stillActive
	}
	return alloc
}

func refDurationFromSeconds(s float64) time.Duration {
	if s <= 0 {
		return time.Nanosecond
	}
	return time.Duration(math.Ceil(s * float64(time.Second)))
}

// psVM is the VM surface the trace drives, implemented by both models.
type psVM interface {
	Submit(time.Duration, func())
	Block(time.Duration)
	Stall()
	Resume()
	Usage() Usage
	ActiveJobs() int
}

// refVMAdapter drops the reference Submit's *refJob result.
type refVMAdapter struct{ *refVM }

func (v refVMAdapter) Submit(d time.Duration, done func()) { v.refVM.Submit(d, done) }

// psEntry is one line of a side's log: a job completion (id >= 0) or a
// Usage snapshot of VM vm (id < 0). CPUSeconds is kept as its bits so the
// comparison is bit-exact.
type psEntry struct {
	at       time.Duration
	id       int
	vm       int
	runnable time.Duration
	blocked  time.Duration
	cpuBits  uint64
	active   int
}

// psSide is one model under the trace, with its own simulator and log.
type psSide struct {
	sim       *des.Simulator
	setPolicy func(Policy)
	vms       []psVM
	log       []psEntry
}

// submit queues job id on VM vm. kind 0 has a nil done; kind 1 logs its
// completion; kind 2 logs it and then re-enters Submit from the done
// callback with a follow-up job of half the demand on the next VM.
func (s *psSide) submit(vm, id int, demand time.Duration, kind int) {
	var done func()
	switch kind {
	case 1:
		done = func() { s.log = append(s.log, psEntry{at: s.sim.Now(), id: id}) }
	case 2:
		done = func() {
			s.log = append(s.log, psEntry{at: s.sim.Now(), id: id})
			s.submit((vm+1)%len(s.vms), id+1<<20, demand/2, 1)
		}
	}
	s.vms[vm].Submit(demand, done)
}

func (s *psSide) snapshot(vm int) {
	u := s.vms[vm].Usage()
	s.log = append(s.log, psEntry{
		at: s.sim.Now(), id: -1, vm: vm,
		runnable: u.Runnable, blocked: u.Blocked,
		cpuBits: math.Float64bits(u.CPUSeconds),
		active:  s.vms[vm].ActiveJobs(),
	})
}

// newPSSides builds the new model and the reference from the trace
// header: byte 0 picks the VM count (1–4), the node's cores and the
// initial policy; one byte per VM picks its weight and its vCPU cap of
// 0.25–2, often below the VM's fair share, so the water-filling caps
// and redistributes.
func newPSSides(data []byte) (sides [2]*psSide, ops []byte) {
	var cfg byte
	if len(data) > 0 {
		cfg, data = data[0], data[1:]
	}
	nvm := 1 + int(cfg%4)
	cores := 1 + float64(cfg>>2&1)
	policy := WeightedVM
	if cfg&8 != 0 {
		policy = JobProportional
	}
	node := NewNode(des.NewSimulator(1), "new", cores)
	ref := newRefNode(des.NewSimulator(1), "ref", cores)
	sides[0] = &psSide{sim: node.sim, setPolicy: node.SetPolicy}
	sides[1] = &psSide{sim: ref.sim, setPolicy: ref.SetPolicy}
	for i := 0; i < nvm; i++ {
		var b byte
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		weight := float64(1 + b%4)
		vcpus := 0.25 * float64(1+b>>2%8)
		sides[0].vms = append(sides[0].vms, node.AddVM("vm", weight, vcpus))
		sides[1].vms = append(sides[1].vms, refVMAdapter{ref.AddVM("vm", weight, vcpus)})
	}
	for _, s := range sides {
		s.setPolicy(policy)
	}
	return sides, data
}

// runPSTrace decodes ops three bytes at a time and applies them to s,
// then drains the simulator and snapshots every VM.
func runPSTrace(s *psSide, ops []byte) {
	nextID := 0
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		vm := int(a) % len(s.vms)
		switch op % 9 {
		case 0, 1: // submit; b == 0 is a zero-demand job
			s.submit(vm, nextID, time.Duration(b)*50*time.Microsecond, int(a>>4)%3)
			nextID++
		case 2: // I/O block; b == 0 is a no-op
			s.vms[vm].Block(time.Duration(b) * 200 * time.Microsecond)
		case 3:
			s.vms[vm].Stall()
		case 4:
			s.vms[vm].Resume()
		case 5:
			if a&1 == 0 {
				s.setPolicy(WeightedVM)
			} else {
				s.setPolicy(JobProportional)
			}
		case 6:
			s.snapshot(vm)
		default: // advance the clock by up to ~65 ms
			if err := s.sim.Run(s.sim.Now() + time.Duration(uint16(a)<<8|uint16(b))*time.Microsecond); err != nil && err != des.ErrHorizon {
				panic(err)
			}
		}
	}
	if err := s.sim.Run(s.sim.Now() + time.Hour); err != nil && err != des.ErrHorizon {
		panic(err)
	}
	for vm := range s.vms {
		s.snapshot(vm)
	}
}

// diffPS runs data through both models and returns a description of the
// first divergence, or "" when they agree.
func diffPS(data []byte) string {
	_, msg := runPSDiff(data)
	return msg
}

// runPSDiff runs data through both models and returns the new model's
// side, for checks on its log, with the description diffPS returns.
func runPSDiff(data []byte) (*psSide, string) {
	sides, ops := newPSSides(data)
	for _, s := range sides {
		runPSTrace(s, ops)
	}
	return sides[0], comparePS(sides[0], sides[1])
}

// comparePS describes the first divergence of got from want, or returns
// "" when they agree.
func comparePS(got, want *psSide) string {
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			return fmt.Sprintf("log entry %d: got %+v, reference %+v", i, got.log[i], want.log[i])
		}
	}
	switch {
	case len(got.log) != len(want.log):
		return fmt.Sprintf("logged %d entries, reference %d", len(got.log), len(want.log))
	case got.sim.Now() != want.sim.Now():
		return fmt.Sprintf("final clock %v, reference %v", got.sim.Now(), want.sim.Now())
	case got.sim.Executed() != want.sim.Executed():
		return fmt.Sprintf("executed %d events, reference %d", got.sim.Executed(), want.sim.Executed())
	case got.sim.Scheduled() != want.sim.Scheduled():
		return fmt.Sprintf("scheduled %d events, reference %d", got.sim.Scheduled(), want.sim.Scheduled())
	}
	return ""
}

// FuzzPSDifferential fuzzes traces through both models.
func FuzzPSDifferential(f *testing.F) {
	f.Add([]byte{0x0b, 0x05, 0x1e, 0, 0x10, 20, 1, 0x21, 0, 7, 1, 0, 6, 0, 0})
	f.Add([]byte{0x02, 0x00, 0x04, 0x09, 0, 0x20, 40, 1, 0x01, 40, 2, 0, 10, 7, 0, 200, 5, 1, 0, 1, 0x22, 30, 7, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg := diffPS(data); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestPSDifferentialProperty runs random traces under testing/quick, so
// the comparison runs on every ordinary `go test`, not only under -fuzz.
func TestPSDifferentialProperty(t *testing.T) {
	f := func(data [240]byte) bool { return diffPS(data[:]) == "" }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// psTrace assembles a trace in runPSTrace's encoding, op by op, for the
// deterministic cases below.
type psTrace struct {
	nvm  int
	data []byte
	jobs int // submits so far, which is the next job's id
}

// newPSTrace starts a trace with newPSSides's header bytes.
func newPSTrace(cfg byte, vms ...byte) *psTrace {
	return &psTrace{nvm: 1 + int(cfg%4), data: append([]byte{cfg}, vms...)}
}

// vmArg returns an argument byte that selects VM vm and done kind kind.
func (t *psTrace) vmArg(vm, kind int) byte {
	for a := 0; a < 256; a++ {
		if a%t.nvm == vm && (a>>4)%3 == kind {
			return byte(a)
		}
	}
	panic("no argument byte selects that VM and kind")
}

// submit queues one job of units × 50 µs (0 is a zero-demand job) and
// returns its id.
func (t *psTrace) submit(vm, kind int, units byte) int {
	t.data = append(t.data, 0, t.vmArg(vm, kind), units)
	t.jobs++
	return t.jobs - 1
}

func (t *psTrace) block(vm int, units byte) { t.data = append(t.data, 2, t.vmArg(vm, 0), units) }
func (t *psTrace) stall(vm int)             { t.data = append(t.data, 3, t.vmArg(vm, 0), 0) }
func (t *psTrace) resume(vm int)            { t.data = append(t.data, 4, t.vmArg(vm, 0), 0) }
func (t *psTrace) snapshot(vm int)          { t.data = append(t.data, 6, t.vmArg(vm, 0), 0) }

func (t *psTrace) setPolicy(p Policy) {
	var a byte
	if p == JobProportional {
		a = 1
	}
	t.data = append(t.data, 5, a, 0)
}

// advance moves the clock by d, in whole microseconds.
func (t *psTrace) advance(d time.Duration) {
	for us := d / time.Microsecond; us > 0; {
		step := min(us, math.MaxUint16)
		t.data = append(t.data, 7, byte(step>>8), byte(step))
		us -= step
	}
}

// completedAt returns when job id's completion was logged, or -1.
func (s *psSide) completedAt(id int) time.Duration {
	for _, e := range s.log {
		if e.id == id {
			return e.at
		}
	}
	return -1
}

// psManyAtOnce appends case (a): 200 equal-demand jobs submitted to VM 0
// at one instant, then 41 ms for them to finish. VM 0 must be capped at
// 0.25 cores, so each job runs at 0.25/200 and all 200 finish at 40 ms,
// in one reschedule. It returns the first job's id.
func psManyAtOnce(t *psTrace) int {
	first := t.jobs
	for i := 0; i < 200; i++ {
		t.submit(0, 1, 1)
	}
	t.advance(41 * time.Millisecond)
	return first
}

// psPendingFinish submits a zero-demand job to VM 0 next to 149 long
// ones and moves the clock 1 µs, returning the job's id. With VM 0
// capped at 0.25 cores, the job's 2 ns of demand drains at 0.25/150 per
// second, so it is at or below doneEpsilon after 1 µs while the
// completion timer is set for 1.2 µs: the next operation's advance
// finds it finished before the timer does.
func psPendingFinish(t *psTrace) int {
	for i := 0; i < 149; i++ {
		t.submit(0, 0, 255)
	}
	id := t.submit(0, 1, 0)
	t.advance(time.Microsecond)
	return id
}

// psStalledWhilePending appends case (b): a Stall taken while a finished
// job is pending on VM 0, a Submit and a Usage while stalled, then
// Resume 1 ms later. It returns the pending job's id and the Resume's
// time offset from the trace's start of the case.
func psStalledWhilePending(t *psTrace) (id int, resumeAfter time.Duration) {
	id = psPendingFinish(t)
	t.stall(0)
	t.submit(0, 1, 5)
	t.snapshot(0)
	t.advance(time.Millisecond)
	t.resume(0)
	return id, time.Millisecond
}

// psCorpusSeed is the committed FuzzPSDifferential seed
// testdata/fuzz/FuzzPSDifferential/many-finish-and-stall: cases (a) and
// (b) in turn on two VMs capped at 0.25 of one core. It returns the
// trace, the first job of (a) and the pending job of (b).
func psCorpusSeed() (data []byte, first, pending int) {
	t := newPSTrace(0x01, 0x00, 0x00)
	first = psManyAtOnce(t)
	pending, _ = psStalledWhilePending(t)
	return t.data, first, pending
}

// TestPSCorpusSeed checks that the committed seed is psCorpusSeed's trace
// and that it still reaches both cases.
func TestPSCorpusSeed(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzPSDifferential/many-finish-and-stall")
	if err != nil {
		t.Fatal(err)
	}
	data, first, pending := psCorpusSeed()
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data); string(raw) != want {
		t.Fatal("the committed seed differs from psCorpusSeed; rewrite it from the builder")
	}
	s, msg := runPSDiff(data)
	if msg != "" {
		t.Fatal(msg)
	}
	if at := s.completedAt(first + 199); at != 40*time.Millisecond {
		t.Fatalf("(a): last of the 200 jobs completed at %v, want 40ms", at)
	}
	if at, want := s.completedAt(pending), 41*time.Millisecond+time.Microsecond+time.Millisecond; at != want {
		t.Fatalf("(b): pending job completed at %v, want %v (the Resume)", at, want)
	}
}

// TestPSDifferentialCases drives both models through traces that random
// ones rarely reach, and checks on the new model's log that each trace
// reaches its case.
func TestPSDifferentialCases(t *testing.T) {
	t.Run("many-finish-at-once", func(t *testing.T) {
		tr := newPSTrace(0x01, 0x00, 0x00)
		first := psManyAtOnce(tr)
		s, msg := runPSDiff(tr.data)
		if msg != "" {
			t.Fatal(msg)
		}
		for id := first; id < first+200; id++ {
			if e := s.log[id-first]; e.id != id || e.at != 40*time.Millisecond {
				t.Fatalf("log entry %d is %+v, want job %d completed at 40ms", id-first, e, id)
			}
		}
	})
	t.Run("stall-with-finished-job-pending", func(t *testing.T) {
		tr := newPSTrace(0x01, 0x00, 0x00)
		id, after := psStalledWhilePending(tr)
		s, msg := runPSDiff(tr.data)
		if msg != "" {
			t.Fatal(msg)
		}
		// The job finished at the Stall's advance, 1 µs in, and
		// completes only when the VM resumes.
		if at, want := s.completedAt(id), time.Microsecond+after; at != want {
			t.Fatalf("pending job completed at %v, want %v (the Resume)", at, want)
		}
	})
	t.Run("usage-at-submit-and-between-events", func(t *testing.T) {
		// Three VMs on two cores: weights 4, 2, 1 with caps 0.25, 0.5
		// and 2, so the water-filling caps two and redistributes.
		tr := newPSTrace(0x06, 0x03, 0x05, 0x1c)
		tr.submit(0, 1, 20)
		tr.snapshot(0)
		tr.submit(1, 1, 10)
		tr.submit(1, 1, 30)
		tr.snapshot(1)
		tr.snapshot(2)
		tr.submit(2, 1, 40)
		tr.snapshot(2)
		tr.snapshot(0)
		tr.advance(300 * time.Microsecond)
		for vm := 0; vm < 3; vm++ {
			tr.snapshot(vm)
		}
		tr.block(1, 4)
		tr.snapshot(1)
		tr.submit(0, 1, 7)
		tr.snapshot(0)
		tr.advance(2 * time.Millisecond)
		for vm := 0; vm < 3; vm++ {
			tr.snapshot(vm)
		}
		tr.setPolicy(JobProportional)
		tr.snapshot(2)
		tr.advance(500 * time.Microsecond)
		tr.snapshot(2)
		s, msg := runPSDiff(tr.data)
		if msg != "" {
			t.Fatal(msg)
		}
		// Each VM's snapshot between events integrated a real interval.
		busy := map[int]bool{}
		for _, e := range s.log {
			if e.id < 0 && e.at == 300*time.Microsecond && e.cpuBits != 0 {
				busy[e.vm] = true
			}
		}
		if len(busy) != 3 {
			t.Fatalf("%d VMs had consumed CPU at 300µs, want 3", len(busy))
		}
	})
	t.Run("usage-with-completion-pending", func(t *testing.T) {
		// Usage only advances, so the job it finds finished stays in
		// place until the completion timer fires at 1.2 µs; that
		// event's advance finishes no further job.
		tr := newPSTrace(0x01, 0x00, 0x00)
		id := psPendingFinish(tr)
		tr.snapshot(0)
		tr.snapshot(1)
		s, msg := runPSDiff(tr.data)
		if msg != "" {
			t.Fatal(msg)
		}
		if at := s.completedAt(id); at != 1200*time.Nanosecond {
			t.Fatalf("pending job completed at %v, want 1.2µs (its timer)", at)
		}
	})
	t.Run("resume-ends-block", func(t *testing.T) {
		// Resume ends a Block early, and the Block's timer then takes
		// the nesting count below zero. Both models then leave the VM
		// out of the water-filling, so its jobs stop, while advance
		// still counts it runnable; a Stall brings the count back to 0.
		tr := newPSTrace(0x01, 0x1c, 0x1c)
		id := tr.submit(0, 1, 20)
		tr.submit(1, 1, 20)
		tr.block(0, 5)
		tr.resume(0)
		tr.advance(2 * time.Millisecond)
		tr.snapshot(0)
		tr.submit(1, 1, 20)
		tr.advance(2 * time.Millisecond)
		tr.snapshot(0)
		tr.stall(0)
		tr.snapshot(0)
		s, msg := runPSDiff(tr.data)
		if msg != "" {
			t.Fatal(msg)
		}
		if at := s.completedAt(id); at <= 4*time.Millisecond {
			t.Fatalf("job on the VM blocked below zero completed at %v, want after the Stall at 4ms", at)
		}
	})
	t.Run("set-policy-with-completion-pending", func(t *testing.T) {
		// VM 0 capped at 0.25 of one core; VMs 1 and 2 uncapped, so the
		// switch to JobProportional moves their split from 1:1 to 1:3.
		tr := newPSTrace(0x02, 0x00, 0x1c, 0x1c)
		tr.submit(1, 1, 20)
		for i := 0; i < 3; i++ {
			tr.submit(2, 1, 20)
		}
		id := psPendingFinish(tr)
		tr.setPolicy(JobProportional)
		s, msg := runPSDiff(tr.data)
		if msg != "" {
			t.Fatal(msg)
		}
		if at := s.completedAt(id); at != time.Microsecond {
			t.Fatalf("pending job completed at %v, want 1µs (the SetPolicy)", at)
		}
	})
}
