package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	ldp "repro"
)

func TestQuantileNearestRankClampedToMax(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted on purpose
	}
	q, err := quantile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 990 || q.N != 1000 || q.Max != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 of 1000 samples, max 1000", q)
	}
	// A p99 of a set with a huge outlier is still a sample, never above max.
	ys := append(make([]float64, 1999), 1e9)
	q, err = quantile(ys, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 0 || q.Value > q.Max {
		t.Fatalf("p99 with one outlier = %+v", q)
	}
	q, err = quantile([]float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 7}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value > q.Max {
		t.Fatalf("quantile %v above max %v", q.Value, q.Max)
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	if _, err := quantile(xs, 0.99); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("p99 of 999 samples: err = %v, want a refusal (9 beyond)", err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("quantile of no samples succeeded")
	}
	// The tail falls back to the highest percentile with ten beyond it.
	q, err := tailQuantile(make([]float64, 500))
	if err != nil {
		t.Fatal(err)
	}
	if q.Q != 0.90 {
		t.Fatalf("tail of 500 samples is p%g, want p90", 100*q.Q)
	}
	if q, err = tailQuantile(make([]float64, 5000)); err != nil || q.Q != 0.99 {
		t.Fatalf("tail of 5000 samples = %+v, %v; want p99", q, err)
	}
	if _, err := tailQuantile(make([]float64, 99)); err == nil {
		t.Fatal("tail of 99 samples succeeded")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// One query: the client span covers the router span, which fans out to
	// two overlapping shard hops (10–60 and 40–90), each covering a shard
	// handler. A second request's spans must not attach to this one.
	spans := []Span{
		{ID: 0, Name: "client.query", ReqID: "a", Start: 0, End: 120},
		{ID: 1, Name: "router.query", ReqID: "a", Start: 5, End: 110},
		{ID: 2, Name: "fleet.snapshot", ReqID: "a", Peer: "s1", Start: 10, End: 60},
		{ID: 3, Name: "fleet.snapshot", ReqID: "a", Peer: "s2", Start: 40, End: 90},
		{ID: 4, Name: "shard.snapshot", ReqID: "a", Peer: "s1", Start: 20, End: 30},
		{ID: 5, Name: "shard.snapshot", ReqID: "a", Peer: "s2", Start: 45, End: 85},
		{ID: 6, Name: "router.query", ReqID: "b", Start: 6, End: 100},
	}
	link(spans)
	wantParent := []int{-1, 0, 1, 1, 2, 3, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	// router: 105 long, children cover the union 10–90 = 80, not 50+50.
	want := map[int]int64{0: 120 - 105, 1: 105 - 80, 2: 50 - 10, 3: 50 - 40, 4: 10, 5: 40, 6: 94}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}, {15, 30}, {50, 60}}, 30},
		{0, 100, [][2]int64{{50, 60}, {10, 20}}, 20},
		{0, 100, [][2]int64{{-10, 5}, {95, 120}}, 10},
		{0, 100, [][2]int64{{10, 90}, {20, 30}}, 80},
		{0, 100, [][2]int64{{200, 300}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

// rrRandomizer is a cheap stand-in for the served strategy: n-ary
// randomized response, enough to show input generation is seed-determined.
func rrRandomizer(t *testing.T) ldp.Randomizer {
	t.Helper()
	m := ldp.RandomizedResponse(8, 1.0)
	f, ok := m.(interface{ Strategy() *ldp.Strategy })
	if !ok {
		t.Fatalf("randomized response %T has no strategy", m)
	}
	r, err := ldp.NewRandomizer(f.Strategy())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSeededInputsAreReproducible(t *testing.T) {
	r := rrRandomizer(t)
	for _, query := range []bool{false, true} {
		gen := func(seed int64) [32]byte {
			in, err := newServingInputs(seed, r, 0.01, query)
			if err != nil {
				t.Fatal(err)
			}
			return in.digest()
		}
		a, b, c := gen(11), gen(11), gen(12)
		if a != b {
			t.Fatalf("query=%v: the same seed produced different frames, keys or query sequences", query)
		}
		if a == c {
			t.Fatalf("query=%v: different seeds produced identical inputs", query)
		}
	}
}

func TestSeededInputsCoverEveryQueryShape(t *testing.T) {
	in, err := newServingInputs(3, rrRandomizer(t), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[querySpec]int{}
	for _, q := range in.queries {
		seen[q]++
	}
	if len(seen) != len(ldp.PaperWorkloads)*numModes {
		t.Fatalf("query sequence covers %d of %d (workload, mode) pairs", len(seen), len(ldp.PaperWorkloads)*numModes)
	}
	keys := map[string]bool{}
	for _, k := range append(append([]string{}, in.frameKeys...), in.deviceKeys...) {
		if keys[k] {
			t.Fatalf("idempotency key %q generated twice", k)
		}
		keys[k] = true
	}
}

func TestWindowQuantileIsMedianOfWindows(t *testing.T) {
	// Six rounds of 1,000 samples, windows of two rounds: the middle window
	// stalls. Its p99 is 50, the others' 1 and 2; the median is 2.
	var samples []float64
	var cuts []int
	for r := 0; r < 6; r++ {
		cuts = append(cuts, len(samples))
		for i := 0; i < 1000; i++ {
			v := float64(1 + r/4) // 1 in the first window, 2 in the last
			if r/2 == 1 {
				v = 50
			}
			samples = append(samples, v)
		}
	}
	q, windows, err := windowQuantile(samples, cuts, 2, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if windows != 3 || q.Value != 2 || q.Max != 50 || q.N != 6000 {
		t.Fatalf("got %+v over %d windows; want value 2, max 50, 6000 samples, 3 windows", q, windows)
	}
	// A window too thin for its own p99 fails the run.
	if _, _, err := windowQuantile(samples[:2500], []int{0, 1000, 2000, 2100}, 2, 0.99); err == nil {
		t.Fatal("a window of 500 samples reported a p99")
	}
}

func TestPhaseAddScalesToReferenceTime(t *testing.T) {
	total := &phase{acked: make([]int64, ingestDistinct), deviceAcked: make([]int64, deviceDistinct)}
	slow := &phase{wall: time.Second, reportLat: []float64{4}, queryLat: []float64{10}, late: []float64{3}, queries: 1, attempted: 2}
	fast := &phase{wall: time.Second, reportLat: []float64{2}, queryLat: []float64{5}, late: []float64{1}, queries: 1, attempted: 2}
	total.add(slow, 0.5) // a round at half the reference speed
	total.add(fast, 1.0)
	if total.wall != 2*time.Second || total.refWall != 1500*time.Millisecond {
		t.Fatalf("wall %v, reference wall %v; want 2s and 1.5s", total.wall, total.refWall)
	}
	// The same work, timed at two host speeds, reads the same in reference time.
	if total.reportLat[0] != total.reportLat[1] || total.queryLat[0] != total.queryLat[1] {
		t.Fatalf("reference latencies %v / %v differ", total.reportLat, total.queryLat)
	}
	if total.late[0] != 3 || total.queries != 2 || total.attempted != 4 {
		t.Fatalf("late %v, queries %d, attempted %d: counts and lateness must add unscaled", total.late, total.queries, total.attempted)
	}
}

func TestRefClockFactorIsMeanOfBracketingIndexes(t *testing.T) {
	m := newInlineMeter(optimizeRound)
	c := newRefClock(m)
	f := c.endRound()
	if len(c.index) != 2 || f != (c.index[0]+c.index[1])/2 || !(f > 0) {
		t.Fatalf("factor %v from indexes %v", f, c.index)
	}
	if c.due() {
		t.Fatal("a round that just began is already due")
	}
}

func TestDeviceKeysCoverEveryRound(t *testing.T) {
	const seconds = 3
	in, err := newServingInputs(1, rrRandomizer(t), seconds, true)
	if err != nil {
		t.Fatal(err)
	}
	// Each round's stream sends at most one frame per period from its start.
	perRound := int(servingRound.Seconds()*deviceRate) + 1
	if want := servingRounds(seconds) * perRound; len(in.deviceKeys) < want {
		t.Fatalf("%d device keys for %d rounds, need %d", len(in.deviceKeys), servingRounds(seconds), want)
	}
}

func TestCompareRefusesDifferentGOMAXPROCS(t *testing.T) {
	a := envStamp{Workload: "ingest", GOMAXPROCS: 1, NumCPU: 2}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("identical stamps refused: %v", err)
	}
	b.GOMAXPROCS = 2
	if err := comparable(a, b); err == nil {
		t.Fatal("results at GOMAXPROCS 1 and 2 were compared")
	}
}

func TestPromCountersSumsSeries(t *testing.T) {
	text := []byte(`# HELP ldp_http_requests_total x
# TYPE ldp_http_requests_total counter
ldp_http_requests_total{endpoint="reports",code="200"} 7
ldp_http_requests_total{endpoint="query",code="200"} 3
ldp_wal_commit_bytes_sum 1.5e+06
ldp_wal_commit_bytes_count 12
`)
	s := scrape{promCounters(text), promCounters(text)}
	if got := s.sum("ldp_http_requests_total", `endpoint="reports"`); got != 14 {
		t.Errorf("reports requests = %v, want 14", got)
	}
	if got := s.sum("ldp_http_requests_total"); got != 20 {
		t.Errorf("all requests = %v, want 20", got)
	}
	if got := s.sum("ldp_wal_commit_bytes_sum"); math.Abs(got-3e6) > 0 {
		t.Errorf("commit bytes = %v, want 3e6", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and the
// metrics this program emits in step: same names, same units, same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
