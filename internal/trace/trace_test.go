package trace

import (
	"strings"
	"testing"
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/metrics"
	"ctqosim/internal/simnet"
	"ctqosim/internal/workload"
)

func TestLogRecordsTransportEvents(t *testing.T) {
	sim := des.NewSimulator(1)
	log := NewLog(sim)
	req := &workload.Request{ID: 42}
	call := &simnet.Call{Payload: req, Attempts: 1}

	log.Dropped("apache", call)
	sim.Schedule(time.Second, func() {
		call.Attempts = 2
		log.Delivered("apache", call)
	})
	if err := sim.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	evs := log.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != KindDropped || evs[0].At != 0 || evs[0].RequestID != 42 {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Kind != KindDelivered || evs[1].At != time.Second || evs[1].Attempt != 2 {
		t.Fatalf("second event = %+v", evs[1])
	}
}

func TestEventsOfKind(t *testing.T) {
	sim := des.NewSimulator(1)
	log := NewLog(sim)
	call := &simnet.Call{}
	log.Dropped("a", call)
	log.Retransmitted("a", call)
	log.Dropped("b", call)
	log.GaveUp("b", call)

	if got := len(log.EventsOfKind(KindDropped)); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := len(log.EventsOfKind(KindGaveUp)); got != 1 {
		t.Fatalf("gave-up = %d, want 1", got)
	}
}

// TestLogCounters pins the tally: exact per-kind/per-server counts,
// ordered by kind then server name whatever order the events came in.
func TestLogCounters(t *testing.T) {
	sim := des.NewSimulator(1)
	log := NewLog(sim)
	call := &simnet.Call{}
	for i := 0; i < 300; i++ {
		log.Delivered("tomcat", call)
	}
	log.GaveUp("apache", call)
	for i := 0; i < 1000; i++ {
		log.Delivered("apache", call)
	}
	log.Dropped("apache", call)
	log.Dropped("apache", call)

	if got := log.CountOf(KindDelivered, "apache"); got != 1000 {
		t.Fatalf("delivered@apache = %d, want 1000", got)
	}
	if got := log.CountOf(KindDelivered, "tomcat"); got != 300 {
		t.Fatalf("delivered@tomcat = %d, want 300", got)
	}
	if got := log.CountOf(KindDropped, "apache"); got != 2 {
		t.Fatalf("dropped@apache = %d, want 2", got)
	}
	want := []EventCount{
		{Kind: KindDelivered, Server: "apache", Count: 1000},
		{Kind: KindDelivered, Server: "tomcat", Count: 300},
		{Kind: KindDropped, Server: "apache", Count: 2},
		{Kind: KindGaveUp, Server: "apache", Count: 1},
	}
	got := log.Counters()
	if len(got) != len(want) {
		t.Fatalf("Counters = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Counters[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestUncappedCountersExact checks CountOf on single events and on a
// cell that never occurred.
func TestUncappedCountersExact(t *testing.T) {
	sim := des.NewSimulator(1)
	log := NewLog(sim)
	call := &simnet.Call{}
	log.Delivered("apache", call)
	log.Dropped("apache", call)
	if log.CountOf(KindDelivered, "apache") != 1 || log.CountOf(KindDropped, "apache") != 1 {
		t.Fatalf("uncapped counters = %v", log.Counters())
	}
	if log.CountOf(KindGaveUp, "nowhere") != 0 {
		t.Fatal("missing cell must count 0")
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindDelivered, "delivered"},
		{KindDropped, "dropped"},
		{KindRetransmitted, "retransmitted"},
		{KindGaveUp, "gave-up"},
		{Kind(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

// series builds a 50ms-interval utilization series from per-sample values.
func series(vals ...float64) *metrics.Series {
	return &metrics.Series{Interval: 50 * time.Millisecond, Values: vals}
}

func TestDetectBottlenecksBasic(t *testing.T) {
	// 8 samples: saturated in windows 2..5 → a 200ms bottleneck starting
	// at 100ms.
	s := series(0.5, 0.6, 1, 1, 1, 1, 0.4, 0.3)
	got := DetectBottlenecks("vm", s, false, DetectorConfig{})
	if len(got) != 1 {
		t.Fatalf("bottlenecks = %v, want 1", got)
	}
	b := got[0]
	if b.Start != 100*time.Millisecond || b.End != 300*time.Millisecond {
		t.Fatalf("bottleneck = %+v", b)
	}
	if b.Duration() != 200*time.Millisecond {
		t.Fatalf("duration = %v", b.Duration())
	}
}

func TestDetectBottlenecksFiltersShortBlips(t *testing.T) {
	s := series(0.2, 1, 0.2, 0.2) // one saturated sample = 50ms < 100ms min
	if got := DetectBottlenecks("vm", s, false, DetectorConfig{}); len(got) != 0 {
		t.Fatalf("got %v, want none", got)
	}
}

func TestDetectBottlenecksFiltersPersistentSaturation(t *testing.T) {
	vals := make([]float64, 200) // 10s of saturation — a real bottleneck
	for i := range vals {
		vals[i] = 1
	}
	if got := DetectBottlenecks("vm", series(vals...), false, DetectorConfig{}); len(got) != 0 {
		t.Fatalf("got %v, want none (persistent, not milli)", got)
	}
}

func TestDetectBottlenecksRunAtEnd(t *testing.T) {
	s := series(0.2, 0.2, 1, 1, 1)
	got := DetectBottlenecks("vm", s, false, DetectorConfig{})
	if len(got) != 1 || got[0].Start != 100*time.Millisecond {
		t.Fatalf("got %v", got)
	}
}

func TestDetectBottlenecksMultiple(t *testing.T) {
	s := series(1, 1, 1, 0.1, 0.1, 1, 1, 1, 0.1)
	got := DetectBottlenecks("vm", s, false, DetectorConfig{})
	if len(got) != 2 {
		t.Fatalf("got %d bottlenecks, want 2", len(got))
	}
}

func TestDetectBottlenecksNilSeries(t *testing.T) {
	if got := DetectBottlenecks("vm", nil, false, DetectorConfig{}); got != nil {
		t.Fatalf("got %v, want nil", got)
	}
}

func buildAnalyzer() *Analyzer {
	return &Analyzer{
		Tiers: []string{"apache", "tomcat", "mysql"},
		TierOfVM: map[string]string{
			"apache-vm": "apache",
			"tomcat-vm": "tomcat",
			"mysql-vm":  "mysql",
		},
	}
}

func TestAnalyzerClassifiesUpstream(t *testing.T) {
	sim := des.NewSimulator(1)
	a := buildAnalyzer()
	log := NewLog(sim)

	// Drops at apache (tier 0) while tomcat-vm (tier 1) is bottlenecked:
	// upstream CTQO, the Fig. 3 signature.
	sim.Schedule(600*time.Millisecond, func() {
		log.Dropped("apache", &simnet.Call{})
		log.Dropped("apache", &simnet.Call{})
	})
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	mon := handMonitor(sim, map[string][]float64{
		"tomcat-vm": {0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7,
			1, 1, 1, 1, 1, 1, 0.7, 0.7, 0.7, 0.7},
	})
	report := a.Analyze(mon, []string{"tomcat-vm"}, log)
	eps := report.CTQOEpisodes()
	if len(eps) != 1 {
		t.Fatalf("CTQO episodes = %d, want 1\n%s", len(eps), report)
	}
	if eps[0].Direction != DirectionUpstream {
		t.Fatalf("direction = %v, want upstream", eps[0].Direction)
	}
	if eps[0].Drops["apache"] != 2 {
		t.Fatalf("drops = %v", eps[0].Drops)
	}
}

func TestAnalyzerClassifiesDownstream(t *testing.T) {
	sim := des.NewSimulator(1)
	a := buildAnalyzer()
	log := NewLog(sim)

	// Drops at mysql (tier 2) while tomcat-vm is bottlenecked: the Fig. 9
	// batch-release signature.
	sim.Schedule(600*time.Millisecond, func() {
		log.Dropped("mysql", &simnet.Call{})
	})
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mon := handMonitor(sim, map[string][]float64{
		"tomcat-vm": {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
			1, 1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5},
	})
	report := a.Analyze(mon, []string{"tomcat-vm"}, log)
	eps := report.CTQOEpisodes()
	if len(eps) != 1 || eps[0].Direction != DirectionDownstream {
		t.Fatalf("report:\n%s", report)
	}
}

func TestAnalyzerNoDropsMeansNoCTQO(t *testing.T) {
	sim := des.NewSimulator(1)
	a := buildAnalyzer()
	log := NewLog(sim)
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mon := handMonitor(sim, map[string][]float64{
		"tomcat-vm": {1, 1, 1, 1, 1, 0.2, 0.2, 0.2},
	})
	report := a.Analyze(mon, []string{"tomcat-vm"}, log)
	if len(report.Episodes) != 1 {
		t.Fatalf("episodes = %d, want 1", len(report.Episodes))
	}
	if report.Episodes[0].Direction != DirectionNone {
		t.Fatalf("direction = %v, want none", report.Episodes[0].Direction)
	}
	if len(report.CTQOEpisodes()) != 0 {
		t.Fatal("no-drop episode reported as CTQO")
	}
}

func TestAnalyzerDropOutsideWindowIgnored(t *testing.T) {
	sim := des.NewSimulator(1)
	a := buildAnalyzer()
	a.Grace = 100 * time.Millisecond
	log := NewLog(sim)

	// Bottleneck spans [0, 250ms]; drop at 3s is unrelated.
	sim.Schedule(3*time.Second, func() { log.Dropped("apache", &simnet.Call{}) })
	if err := sim.Run(4 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mon := handMonitor(sim, map[string][]float64{
		"tomcat-vm": {1, 1, 1, 1, 1, 0.1, 0.1},
	})
	report := a.Analyze(mon, []string{"tomcat-vm"}, log)
	if report.Episodes[0].Direction != DirectionNone {
		t.Fatalf("unrelated drop correlated:\n%s", report)
	}
	if report.TotalDrops != 1 {
		t.Fatalf("TotalDrops = %d, want 1", report.TotalDrops)
	}
}

func TestReportString(t *testing.T) {
	sim := des.NewSimulator(1)
	a := buildAnalyzer()
	log := NewLog(sim)
	sim.Schedule(100*time.Millisecond, func() { log.Dropped("apache", &simnet.Call{}) })
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mon := handMonitor(sim, map[string][]float64{
		"tomcat-vm": {1, 1, 1, 1, 0.1},
	})
	s := a.Analyze(mon, []string{"tomcat-vm"}, log).String()
	for _, want := range []string{"apache -> tomcat -> mysql", "upstream CTQO", "drops: apache=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestDirectionString(t *testing.T) {
	tests := []struct {
		d    Direction
		want string
	}{
		{DirectionNone, "no CTQO"},
		{DirectionUpstream, "upstream CTQO"},
		{DirectionDownstream, "downstream CTQO"},
		{DirectionBoth, "upstream+downstream CTQO"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.d, got, tt.want)
		}
	}
}

// handMonitor builds a Monitor carrying pre-computed utilization series,
// plus empty I/O-wait series so the analyzer has both to scan.
func handMonitor(sim *des.Simulator, utils map[string][]float64) *metrics.Monitor {
	mon := metrics.NewMonitor(sim, 50*time.Millisecond)
	for name, vals := range utils {
		mon.SetUtil(name, series(vals...))
		mon.SetIOWait(name, series())
	}
	return mon
}
