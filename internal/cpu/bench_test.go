package cpu

import (
	"fmt"
	"testing"
	"time"

	"ctqosim/internal/des"
)

// BenchmarkProcessorSharing measures one Submit of a 1 ms job through its
// completion while the VM's processor sharing serves n jobs in all; the
// n-1 others never finish within the benchmark. The shape matches the
// perfbench cpu.submit.n* probes, so the layer can be profiled with
// go test alone.
func BenchmarkProcessorSharing(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sim := des.NewSimulator(1)
			vm := NewNode(sim, "n", 1).AddVM("vm", 1, 1)
			for i := 1; i < n; i++ {
				vm.Submit(1000*time.Hour, func() {})
			}
			var done bool
			finish := func() { done = true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done = false
				vm.Submit(time.Millisecond, finish)
				for !done && sim.Step() {
				}
			}
		})
	}
}
