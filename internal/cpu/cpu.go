// Package cpu models physical compute nodes whose cores are shared by
// virtual machines, as in the paper's ESXi consolidation testbed (Fig. 2/13).
//
// A Node has a fixed number of cores. VMs placed on the node receive CPU in
// proportion to their weights (the ESXi "CPU shares"), capped by their vCPU
// count, with any unused share redistributed to the other runnable VMs
// (water-filling). Within a VM, all runnable jobs share the VM's allocation
// equally — generalized processor sharing, the standard fluid approximation
// of a time-slicing scheduler.
//
// This is the substrate on which millibottlenecks arise: when a co-located
// bursty VM becomes runnable, the steady VM's allocation drops and its
// run queue backs up for a sub-second interval, exactly the mechanism in
// Section IV-A of the paper. VMs also support Block, an I/O stall during
// which jobs make no progress (Section IV-B's log-flush millibottleneck).
package cpu

import (
	"fmt"
	"math"
	"time"

	"ctqosim/internal/des"
)

// epsilon below which a job's remaining demand counts as complete, in
// seconds. One nanosecond of CPU demand is far below any modeled quantum.
const doneEpsilon = 1e-9

// Policy selects how a node's cores are divided among its VMs.
type Policy int

// Scheduling policies.
const (
	// WeightedVM divides cores among runnable VMs in proportion to their
	// weights (ESXi-style shares). This is the default.
	WeightedVM Policy = iota + 1
	// JobProportional divides cores in proportion to weight × runnable
	// jobs, modeling thread-proportional time slicing on a consolidated
	// core: a co-tenant that dumps hundreds of runnable threads starves a
	// steady tenant with a handful, effectively stopping it — the
	// millibottleneck behaviour the paper observes during SysBursty's
	// bursts (Section IV-A).
	JobProportional
)

// Node is a physical machine with a fixed core capacity shared by VMs.
type Node struct {
	sim    *des.Simulator
	name   string
	cores  float64
	policy Policy
	vms    []*VM

	lastUpdate time.Duration
	// completion is the node's one completion timer, bound to n.complete
	// and allocated with the node; every reschedule re-arms or cancels it.
	completion *des.Event

	// Buffers reused on every event. alloc and active back allocations;
	// alloc holds the allocation in effect since the last reschedule,
	// which is the one advance integrates over: every change that moves it
	// (Submit, Block, unblock, Stall, Resume, SetPolicy, the completion
	// timer) runs advance, changes the state, then reschedules. completed
	// holds one reschedule's done callbacks and is taken off the node
	// while they run, because they may re-enter Submit.
	alloc     []float64
	active    []int
	completed []func()
}

// NewNode creates a node with the given core capacity (1.0 = one core).
func NewNode(sim *des.Simulator, name string, cores float64) *Node {
	if cores <= 0 {
		cores = 1
	}
	n := &Node{sim: sim, name: name, cores: cores, policy: WeightedVM}
	n.completion = des.NewEvent(n.complete)
	return n
}

// SetPolicy switches the node's scheduling policy. Call before submitting
// work; switching mid-run applies from the next scheduling event.
func (n *Node) SetPolicy(p Policy) {
	n.advance()
	n.policy = p
	n.reschedule()
}

// PolicyInUse returns the node's current scheduling policy.
func (n *Node) PolicyInUse() Policy { return n.policy }

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Cores returns the node's core capacity.
func (n *Node) Cores() float64 { return n.cores }

// AddVM places a VM on the node. Weight is the relative CPU share; vcpus
// caps the cores the VM may use at once.
func (n *Node) AddVM(name string, weight, vcpus float64) *VM {
	if weight <= 0 {
		weight = 1
	}
	if vcpus <= 0 {
		vcpus = 1
	}
	vm := &VM{node: n, name: name, weight: weight, vcpus: vcpus, minRem: math.Inf(1), firstDone: -1, lastDone: -1}
	n.vms = append(n.vms, vm)
	n.alloc = append(n.alloc, 0)
	n.active = append(n.active, 0)
	return vm
}

// VM is a virtual machine placed on a Node. Jobs submitted to a VM consume
// simulated CPU time under processor sharing.
type VM struct {
	node   *Node
	name   string
	weight float64
	vcpus  float64

	// The outstanding jobs, as parallel arrays compacted in place: rem
	// holds each job's remaining CPU demand in seconds, done its
	// completion callback (nil for none).
	rem     []float64
	done    []func()
	blocked int // nesting depth of active Block intervals

	// minRem is the smallest rem above doneEpsilon, kept by advance's
	// pass and by Submit; reschedule divides it by the rate to find the
	// VM's next completion. firstDone and lastDone are the indices of the
	// first and last jobs advance found finished, firstDone -1 when none
	// is; reschedule compacts the arrays between them and moves the tail
	// after lastDone down in one copy. A blocked VM keeps all three until
	// it is unblocked.
	minRem              float64
	firstDone, lastDone int

	// allocKey is what the VM contributed to the node's last
	// water-filling; see Node.allocInputsChanged.
	allocKey int

	// Accumulators, updated lazily by node.advance. All are integrals over
	// simulated time and are sampled by the metrics monitor.
	runnableTime time.Duration // time with >=1 runnable job and not blocked
	blockedTime  time.Duration // time spent blocked (I/O wait)
	cpuSeconds   float64       // core-seconds actually consumed
}

// Name returns the VM's name.
func (v *VM) Name() string { return v.name }

// Node returns the node hosting this VM.
func (v *VM) Node() *Node { return v.node }

// ActiveJobs returns the number of jobs currently runnable or blocked on
// the VM.
func (v *VM) ActiveJobs() int { return len(v.rem) }

// Usage is a snapshot of a VM's accumulated CPU accounting.
type Usage struct {
	// Runnable is the total time the VM had at least one runnable job and
	// was not blocked. The ratio of Runnable deltas to wall time is the
	// "utilization" plotted in the paper's timelines: a saturated VM is
	// pinned at 100%.
	Runnable time.Duration
	// Blocked is the total time the VM was stalled on I/O.
	Blocked time.Duration
	// CPUSeconds is the core-seconds of actual CPU consumed.
	CPUSeconds float64
}

// Usage returns the VM's accumulated accounting as of the current simulated
// time.
func (v *VM) Usage() Usage {
	v.node.advance()
	return Usage{
		Runnable:   v.runnableTime,
		Blocked:    v.blockedTime,
		CPUSeconds: v.cpuSeconds,
	}
}

// Submit queues demand seconds of CPU work on the VM; done fires when the
// work completes. Zero or negative demand completes on the next event
// (still asynchronously, never re-entrantly).
func (v *VM) Submit(demand time.Duration, done func()) {
	v.node.advance()
	rem := demand.Seconds()
	if rem <= doneEpsilon {
		// Keep even zero-demand jobs asynchronous: a sliver of demand makes
		// the completion fire from the event loop, never inside Submit.
		rem = 2 * doneEpsilon
	}
	v.rem = append(v.rem, rem)    //lint:allow allocs amortized: the job arrays grow to the VM's peak job count, then are reused
	v.done = append(v.done, done) //lint:allow allocs amortized: grows with rem
	if rem < v.minRem {
		v.minRem = rem
	}
	v.node.reschedule()
}

// Block stalls the VM for d: all of its jobs stop progressing and the time
// is accounted as I/O wait. Overlapping blocks nest; the VM resumes when
// all blocks end.
func (v *VM) Block(d time.Duration) {
	if d <= 0 {
		return
	}
	v.node.advance()
	v.blocked++
	// The timer is never cancelled, so it can be a pooled event; Post
	// shares Schedule's (time, seq) order.
	v.node.sim.Post(d, unblock, v, nil)
	v.node.reschedule()
}

// unblock ends one Block interval of the *VM in a0.
func unblock(a0, _ any) {
	v := a0.(*VM)
	v.node.advance()
	v.blocked--
	v.node.reschedule()
}

// Blocked reports whether the VM is currently stalled on I/O.
func (v *VM) Blocked() bool { return v.blocked > 0 }

// Stall blocks the VM indefinitely — the scenario engine's kill_tier: all
// jobs stop progressing until Resume. Stalls nest with Block and with
// each other; each Stall needs its own Resume.
func (v *VM) Stall() {
	v.node.advance()
	v.blocked++
	v.node.reschedule()
}

// Resume ends one Stall. Resuming a VM that is not stalled is a no-op, so
// a restore script cannot drive the nesting depth negative.
func (v *VM) Resume() {
	if v.blocked == 0 {
		return
	}
	v.node.advance()
	v.blocked--
	v.node.reschedule()
}

// advance integrates all job progress and accounting from lastUpdate to the
// current simulated time, using the allocation that has been in effect over
// that interval. The same pass over a VM's jobs keeps its minRem,
// firstDone and lastDone for the reschedule that follows.
//
//lint:hotpath processor-sharing progress, integrated on every event
func (n *Node) advance() {
	now := n.sim.Now()
	elapsed := (now - n.lastUpdate).Seconds()
	if elapsed <= 0 {
		n.lastUpdate = now
		return
	}
	for i, vm := range n.vms {
		if vm.blocked > 0 {
			vm.blockedTime += now - n.lastUpdate
			continue
		}
		if len(vm.rem) == 0 {
			continue
		}
		vm.runnableTime += now - n.lastUpdate
		rate := n.alloc[i] / float64(len(vm.rem))
		d := rate * elapsed
		rem := vm.rem
		if m := vm.minRem - d; m > doneEpsilon {
			// Rounding is monotone, so the job holding minRem still holds
			// the minimum after the subtraction, and no job finishes:
			// firstDone and lastDone stand, and only rem moves.
			for j := range rem {
				rem[j] -= d
			}
			vm.minRem = m
		} else {
			// A job finishes. minRem only ever holds values above
			// doneEpsilon, so a finished job always passes the outer
			// test, and any other job that is not a new minimum costs
			// one comparison.
			minRem, firstDone, lastDone := math.Inf(1), -1, -1
			for j := range rem {
				r := rem[j] - d
				rem[j] = r
				if r < minRem {
					if r > doneEpsilon {
						minRem = r
					} else {
						if firstDone < 0 {
							firstDone = j
						}
						lastDone = j
					}
				}
			}
			vm.minRem, vm.firstDone, vm.lastDone = minRem, firstDone, lastDone
		}
		vm.cpuSeconds += n.alloc[i] * elapsed
	}
	n.lastUpdate = now
}

// reschedule completes any finished jobs and arms the next completion event.
// Done callbacks run after internal state is consistent; they may submit new
// work re-entrantly.
//
//lint:hotpath processor-sharing completion and timer, run on every event
func (n *Node) reschedule() {
	completed := n.completed[:0]
	n.completed = nil
	for _, vm := range n.vms {
		if vm.blocked > 0 || vm.firstDone < 0 {
			continue
		}
		// Compact in submission order from the first finished job, so
		// done callbacks run in that order; the jobs before it are kept
		// in place, and every job after the last finished one is kept,
		// so that tail moves down in one copy.
		rem, done := vm.rem, vm.done
		kept := vm.firstDone
		for j := kept; j <= vm.lastDone; j++ {
			if rem[j] <= doneEpsilon {
				completed = append(completed, done[j]) //lint:allow allocs amortized: the buffer grows to the most jobs finishing at once, then is reused
				continue
			}
			rem[kept], done[kept] = rem[j], done[j]
			kept++
		}
		copy(done[kept:], done[vm.lastDone+1:])
		kept += copy(rem[kept:], rem[vm.lastDone+1:])
		// Clear the tail so finished callbacks are collectable.
		clear(done[kept:])
		vm.rem, vm.done = rem[:kept], done[:kept]
		vm.firstDone = -1
	}

	alloc := n.alloc
	if n.allocInputsChanged() {
		alloc = n.allocations()
	}
	next := -1.0
	for i, vm := range n.vms {
		if vm.blocked > 0 || len(vm.rem) == 0 || alloc[i] <= 0 {
			continue
		}
		rate := alloc[i] / float64(len(vm.rem))
		// Correctly rounded division by a positive rate is monotone, so
		// minRem/rate is the smallest of the jobs' rem/rate bit for bit.
		t := vm.minRem / rate
		if next < 0 || t < next {
			next = t
		}
	}
	// Re-arming a pending timer tombstones its old entry, exactly as
	// Cancel followed by a fresh Schedule would, without allocating.
	if next >= 0 {
		n.sim.Rearm(n.completion, durationFromSeconds(next))
	} else {
		n.sim.Cancel(n.completion)
	}

	for _, done := range completed {
		if done != nil {
			done()
		}
	}
	clear(completed)
	n.completed = completed
}

// complete is the completion timer's callback.
func (n *Node) complete() {
	n.advance()
	n.reschedule()
}

// allocations computes the core allocation per VM: proportional to weight
// among runnable VMs, capped at vcpus, with excess redistributed. It
// returns the node's alloc buffer, valid until the next call.
//
//lint:hotpath processor-sharing allocation, recomputed when its inputs change
func (n *Node) allocations() []float64 {
	alloc := n.alloc
	clear(alloc)
	k := 0
	for i, vm := range n.vms {
		if vm.waterFilled() {
			n.active[k] = i
			k++
		}
	}
	active := n.active[:k]
	remaining := n.cores
	// Water-filling: repeatedly grant proportional shares; VMs that hit
	// their vCPU cap are fixed and their surplus redistributed. A VM
	// still in active holds alloc 0.
	for len(active) > 0 && remaining > 1e-12 {
		var totalWeight float64
		for _, i := range active {
			totalWeight += n.effWeight(n.vms[i])
		}
		capped := false
		k = 0
		for _, i := range active {
			vm := n.vms[i]
			share := remaining * n.effWeight(vm) / totalWeight
			if share >= vm.vcpus {
				capped = true
				alloc[i] = vm.vcpus
			} else {
				active[k] = i
				k++
			}
		}
		active = active[:k]
		if !capped {
			for _, i := range active {
				alloc[i] = remaining * n.effWeight(n.vms[i]) / totalWeight
			}
			break
		}
		// The pool left for uncapped VMs is what the capped ones do not
		// use; uncapped VMs add 0 to the sum.
		used := 0.0
		for _, a := range alloc {
			used += a
		}
		remaining = n.cores - used
	}
	return alloc
}

// allocInputsChanged reports whether any VM's input to allocations has
// changed since the last call, recording the new inputs. A VM's input is
// 0 when allocations leaves it out, else the factor effWeight multiplies
// its weight by: its job count under JobProportional, 1 under WeightedVM.
// The cores, weights and vCPU caps are fixed, so with no change
// allocations would recompute n.alloc bit for bit.
//
//lint:hotpath processor-sharing allocation check, run on every event
func (n *Node) allocInputsChanged() bool {
	changed := false
	for _, vm := range n.vms {
		key := 1
		switch {
		case !vm.waterFilled():
			key = 0
		case n.policy == JobProportional:
			key = len(vm.rem)
		}
		if key != vm.allocKey {
			vm.allocKey = key
			changed = true
		}
	}
	return changed
}

// waterFilled reports whether allocations gives the VM a share: it has
// jobs and no Block or Stall holds it.
func (v *VM) waterFilled() bool { return v.blocked == 0 && len(v.rem) > 0 }

// effWeight is the VM's share under the node's policy.
func (n *Node) effWeight(vm *VM) float64 {
	if n.policy == JobProportional {
		return vm.weight * float64(len(vm.rem))
	}
	return vm.weight
}

// durationFromSeconds converts to a Duration, rounding up so a positive
// remaining demand always schedules strictly in the future. Truncating here
// could produce a zero-delay completion event that re-fires at the same
// timestamp forever without making progress.
func durationFromSeconds(s float64) time.Duration {
	if s <= 0 {
		return time.Nanosecond
	}
	return time.Duration(math.Ceil(s * float64(time.Second)))
}

// String implements fmt.Stringer for debugging.
func (v *VM) String() string {
	return fmt.Sprintf("vm(%s jobs=%d blocked=%v)", v.name, len(v.rem), v.blocked > 0)
}
