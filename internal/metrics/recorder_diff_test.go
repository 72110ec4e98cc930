package metrics

// Differential check of the Recorder against a reference kept verbatim
// from the RetainAll path it replaced: every *workload.Request retained,
// a cached sorted copy of the response times, and every statistic
// rescanned from the requests on each query. Both sides record the same
// random request stream, with queries interleaved between records, and
// every accessor must agree exactly.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"ctqosim/internal/workload"
)

type refRecorder struct {
	WarmUp   time.Duration
	requests []*workload.Request
	sorted   []time.Duration
}

func (r *refRecorder) Record(req *workload.Request) {
	if req.Submitted < r.WarmUp {
		return
	}
	r.requests = append(r.requests, req)
	r.sorted = nil
}

func (r *refRecorder) Len() int { return len(r.requests) }

func (r *refRecorder) ResponseTimes() []time.Duration {
	out := make([]time.Duration, 0, len(r.requests))
	for _, req := range r.requests {
		out = append(out, req.ResponseTime())
	}
	return out
}

func (r *refRecorder) Throughput(until time.Duration) float64 {
	span := (until - r.WarmUp).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(r.Len()) / span
}

func (r *refRecorder) Mean() time.Duration {
	if len(r.requests) == 0 {
		return 0
	}
	var sum time.Duration
	for _, req := range r.requests {
		sum += req.ResponseTime()
	}
	return sum / time.Duration(len(r.requests))
}

func (r *refRecorder) sortedResponseTimes() []time.Duration {
	if r.sorted == nil && len(r.requests) > 0 {
		r.sorted = r.ResponseTimes()
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
	}
	return r.sorted
}

func refNearestRank(p float64, n int) int {
	pn := p * float64(n)
	idx := int(math.Ceil(pn-pn*1e-12)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

func (r *refRecorder) Percentile(p float64) time.Duration {
	if len(r.requests) == 0 {
		return 0
	}
	rts := r.sortedResponseTimes()
	if p <= 0 {
		return rts[0]
	}
	if p >= 1 {
		return rts[len(rts)-1]
	}
	return rts[refNearestRank(p, len(rts))]
}

func (r *refRecorder) VLRTCount() int {
	n := 0
	for _, req := range r.requests {
		if req.VLRT() {
			n++
		}
	}
	return n
}

func (r *refRecorder) FailedCount() int {
	n := 0
	for _, req := range r.requests {
		if req.Failed {
			n++
		}
	}
	return n
}

func (r *refRecorder) DropsByServer() []ServerDrops {
	counts := make(map[string]int)
	for _, req := range r.requests {
		for _, s := range req.Drops {
			counts[s]++
		}
	}
	names := make([]string, 0, len(counts))
	for s := range counts {
		names = append(names, s)
	}
	sort.Strings(names)
	out := make([]ServerDrops, 0, len(names))
	for _, s := range names {
		out = append(out, ServerDrops{Server: s, Drops: counts[s]})
	}
	return out
}

func (r *refRecorder) VLRTSeries(window, until time.Duration, serverName string) []int {
	if window <= 0 || until <= r.WarmUp {
		return nil
	}
	n := int((until-r.WarmUp)/window) + 1
	out := make([]int, n)
	for _, req := range r.requests {
		if !req.VLRT() {
			continue
		}
		if serverName != "" && req.DroppedBy() != serverName {
			continue
		}
		idx := int((req.Submitted - r.WarmUp) / window)
		if idx >= 0 && idx < n {
			out[idx]++
		}
	}
	return out
}

func (r *refRecorder) ByClass() []ClassStats {
	group := make(map[string][]*workload.Request)
	for _, req := range r.requests {
		group[req.Class.Name] = append(group[req.Class.Name], req)
	}
	names := make([]string, 0, len(group))
	for name := range group {
		names = append(names, name)
	}
	sort.Strings(names)

	out := make([]ClassStats, 0, len(names))
	for _, name := range names {
		reqs := group[name]
		cs := ClassStats{Class: name, Count: len(reqs)}
		rts := make([]time.Duration, 0, len(reqs))
		var sum time.Duration
		for _, req := range reqs {
			rt := req.ResponseTime()
			rts = append(rts, rt)
			sum += rt
			if req.VLRT() {
				cs.VLRT++
			}
			if req.Failed {
				cs.Failed++
			}
		}
		cs.Mean = sum / time.Duration(len(reqs))
		sort.Slice(rts, func(i, j int) bool { return rts[i] < rts[j] })
		cs.P99 = rts[refNearestRank(0.99, len(rts))]
		out = append(out, cs)
	}
	return out
}

func (r *refRecorder) CDF(thresholds []time.Duration) []CDFPoint {
	out := make([]CDFPoint, 0, len(thresholds))
	if r.Len() == 0 {
		for _, t := range thresholds {
			out = append(out, CDFPoint{RT: t})
		}
		return out
	}
	rts := r.sortedResponseTimes()
	for _, t := range thresholds {
		idx := sort.Search(len(rts), func(i int) bool { return rts[i] > t })
		out = append(out, CDFPoint{RT: t, Fraction: float64(idx) / float64(len(rts))})
	}
	return out
}

func (r *refRecorder) Histogram(binWidth, maxRT time.Duration) *Histogram {
	h := NewHistogram(binWidth, maxRT)
	for _, req := range r.requests {
		h.Observe(req.ResponseTime())
	}
	return h
}

// recorderView is the subset of the Recorder API both sides implement.
type recorderView interface {
	Record(*workload.Request)
	Len() int
	Throughput(until time.Duration) float64
	Mean() time.Duration
	Percentile(p float64) time.Duration
	VLRTCount() int
	FailedCount() int
	DropsByServer() []ServerDrops
	VLRTSeries(window, until time.Duration, serverName string) []int
	ByClass() []ClassStats
	CDF(thresholds []time.Duration) []CDFPoint
	Histogram(binWidth, maxRT time.Duration) *Histogram
}

var (
	_ recorderView = (*Recorder)(nil)
	_ recorderView = (*refRecorder)(nil)
)

// diffWindow is the VLRT series window both sides are queried at: the
// new recorder retains only its SeriesWindow.
const diffWindow = 50 * time.Millisecond

var diffServers = []string{"apache", "tomcat", "mysql"}

// recTrace is a random request stream with queries interleaved: a nil
// entry in reqs is a query of every accessor.
type recTrace struct {
	warmUp time.Duration
	reqs   []*workload.Request
}

// Generate implements quick.Generator. Submissions fall either side of
// the warm-up cutoff; response times mix fast requests, ties, values a
// nanosecond either side of the 3 s VLRT threshold, multi-second VLRTs
// and in-flight zeros; requests may fail and carry zero to three drops
// at three servers; one to five classes.
func (recTrace) Generate(rng *rand.Rand, size int) reflect.Value {
	tr := recTrace{}
	if rng.Intn(2) == 0 {
		tr.warmUp = time.Duration(rng.Int63n(int64(2 * time.Second)))
	}
	classes := 1 + rng.Intn(5)
	n := rng.Intn(8*size + 1)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			tr.reqs = append(tr.reqs, nil)
			continue
		}
		req := &workload.Request{
			ID:        uint64(i),
			Class:     workload.Class{Name: fmt.Sprintf("class%d", rng.Intn(classes))},
			Submitted: time.Duration(rng.Int63n(int64(tr.warmUp + 3*time.Second))),
			Failed:    rng.Intn(6) == 0,
		}
		var rt time.Duration
		switch rng.Intn(6) {
		case 0, 1:
			rt = time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		case 2:
			rt = time.Duration(1+rng.Intn(3)) * 10 * time.Millisecond
		case 3:
			rt = VLRTThreshold + time.Duration(rng.Intn(3)-1)
		case 4:
			rt = 3*time.Second + time.Duration(rng.Int63n(int64(7*time.Second)))
		}
		if rng.Intn(12) != 0 {
			req.Completed = req.Submitted + rt
		}
		if rng.Intn(2) == 0 {
			for d := 1 + rng.Intn(3); d > 0; d-- {
				req.Drops = append(req.Drops, diffServers[rng.Intn(len(diffServers))])
			}
		}
		tr.reqs = append(tr.reqs, req)
	}
	return reflect.ValueOf(tr)
}

// recSnapshot is every accessor's answer at one point of the stream.
type recSnapshot struct {
	Len         int
	Throughput  float64
	Mean        time.Duration
	Percentiles []time.Duration
	VLRT        int
	Failed      int
	Drops       []ServerDrops
	Series      [][]int
	Classes     []ClassStats
	CDF         []CDFPoint
	Hists       [][]int64
}

func snapshotRecorder(r recorderView, warmUp time.Duration, rts []time.Duration) recSnapshot {
	s := recSnapshot{
		Len:        r.Len(),
		Throughput: r.Throughput(warmUp + 3*time.Second),
		Mean:       r.Mean(),
		VLRT:       r.VLRTCount(),
		Failed:     r.FailedCount(),
		Drops:      r.DropsByServer(),
		Classes:    r.ByClass(),
	}
	for _, p := range []float64{0.99, 0, 0.001, 0.1, 0.21, 0.5, 0.9, 0.999, 1, 0.07} {
		s.Percentiles = append(s.Percentiles, r.Percentile(p))
	}
	for _, until := range []time.Duration{warmUp - 1, warmUp, warmUp + time.Second, warmUp + 5*time.Second} {
		for _, srv := range []string{"", "apache", "tomcat", "mysql", "nobody"} {
			s.Series = append(s.Series, r.VLRTSeries(diffWindow, until, srv))
		}
	}
	thresholds := []time.Duration{-1, 0, 10 * time.Millisecond, VLRTThreshold, 6 * time.Second}
	for _, rt := range rts {
		thresholds = append(thresholds, rt-1, rt, rt+1)
	}
	s.CDF = r.CDF(thresholds)
	for _, bin := range [][2]time.Duration{{100 * time.Millisecond, 10 * time.Second}, {time.Second, 5 * time.Second}} {
		h := r.Histogram(bin[0], bin[1])
		counts := []int64{h.Total()}
		for i := 0; i <= h.Bins(); i++ {
			counts = append(counts, h.Count(i))
		}
		s.Hists = append(s.Hists, counts)
	}
	return s
}

// diffRecorder replays tr into a RetainAll Recorder and the reference and
// returns a description of the first disagreement, or "".
func diffRecorder(tr recTrace) string {
	got := NewRecorder()
	got.WarmUp = tr.warmUp
	got.SeriesWindow = diffWindow
	want := &refRecorder{WarmUp: tr.warmUp}
	var rts []time.Duration
	compare := func(at int) string {
		g := snapshotRecorder(got, tr.warmUp, rts)
		w := snapshotRecorder(want, tr.warmUp, rts)
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("after op %d of %d:\n got  %+v\n want %+v", at, len(tr.reqs), g, w)
		}
		return ""
	}
	for i, req := range tr.reqs {
		if req == nil {
			if d := compare(i); d != "" {
				return d
			}
			continue
		}
		got.Record(req)
		want.Record(req)
		if len(rts) < 8 {
			rts = append(rts, req.ResponseTime())
		}
	}
	if got.hdr != nil && !got.hdr.Exact() {
		return "RetainAll histogram spilled"
	}
	return compare(len(tr.reqs))
}

// TestRecorderDifferentialProperty runs random request streams under
// testing/quick through the Recorder and the retained reference.
func TestRecorderDifferentialProperty(t *testing.T) {
	var diff string
	f := func(tr recTrace) bool {
		diff = diffRecorder(tr)
		return diff == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		if ce, ok := err.(*quick.CheckError); ok {
			t.Fatalf("trace %d diverged: %s", ce.Count, diff)
		}
		t.Fatal(err)
	}
}

// TestRecorderDifferentialBeyondExactCap records more requests than the
// default HDR exact capacity: a RetainAll recorder must stay exact where
// a bounded one would have spilled.
func TestRecorderDifferentialBeyondExactCap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := recTrace{warmUp: time.Second}
	for i := 0; i < 4*DefaultHDRExactCap; i++ {
		sub := time.Second + time.Duration(rng.Int63n(int64(3*time.Second)))
		tr.reqs = append(tr.reqs, &workload.Request{
			Class:     workload.Class{Name: fmt.Sprintf("class%d", i%3)},
			Submitted: sub,
			Completed: sub + time.Duration(rng.Int63n(int64(5*time.Second))),
		})
		if i%1000 == 0 {
			tr.reqs = append(tr.reqs, nil)
		}
	}
	if diff := diffRecorder(tr); diff != "" {
		t.Fatal(diff)
	}
}
