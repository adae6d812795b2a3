package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ldp "repro"
	"repro/internal/transport"
)

// The served mechanism is the paper's own: a strategy optimized at set-up
// for AllRange at n=64, ε=1, with the paper's defaults (m=4n, 500
// iterations) and a fixed seed.
const (
	servedN    = 64
	servedEps  = 1.0
	servedSeed = 1
)

// servingSetups is how many times a serving run sets the stack up; setup_s
// is the median, and the last one serves the timed phase.
const servingSetups = 3

// servingEnv is one set-up serving stack with its inputs.
type servingEnv struct {
	served     *ldp.Optimized
	optTrace   optTrace // the served strategy's optimization, for opt.*.n64
	agg        ldp.Aggregator
	w          ldp.Workload
	in         *servingInputs
	st         *stack
	rec        *recorder
	keyNext    atomic.Int64 // next unused index into in.frameKeys
	deviceNext int          // next unused index into in.deviceKeys
	queryNext  atomic.Int64 // next entry of in.queries
	prefilled  []int64      // acked pre-fill frames per distinct frame
}

// setupServing optimizes the served strategy, generates inputs for
// loadSeconds of timed rounds, deploys the stack under dir and, when
// prefill is set, loads the pre-fill through the router.
func setupServing(ctx context.Context, dir string, seed int64, loadSeconds float64, prefill bool, rec *recorder) (*servingEnv, error) {
	env := &servingEnv{w: ldp.AllRange(servedN), rec: rec}
	var err error
	if env.served, env.optTrace, err = optimizeTraced(ctx, env.w, servedEps, servedSeed, nil); err != nil {
		return nil, fmt.Errorf("optimize served strategy: %w", err)
	}
	strat := env.served.Strategy()
	if env.agg, err = ldp.NewAggregator(strat); err != nil {
		return nil, err
	}
	rnd, err := ldp.NewRandomizer(strat)
	if err != nil {
		return nil, err
	}
	if env.in, err = newServingInputs(seed, rnd, loadSeconds, prefill); err != nil {
		return nil, err
	}
	if env.st, err = deploy(ctx, env.agg, env.w, dir, rec); err != nil {
		return nil, err
	}
	env.prefilled = make([]int64, ingestDistinct)
	if prefill {
		c := newClient(env.st.url, runtime.NumCPU(), rec)
		defer c.close()
		ph := env.ingestLoop(ctx, c, runtime.NumCPU(), time.Time{}, prefillFrames)
		if ph.err != nil || ph.failed > 0 {
			env.st.close()
			return nil, fmt.Errorf("pre-fill: %d of %d frames failed: %v", ph.failed, ph.attempted, ph.err)
		}
		env.prefilled = ph.acked
	}
	return env, nil
}

// phase is what one timed phase of a serving workload, or one round of
// it, observed. A whole phase holds its latencies in reference time (see
// hostspeed.go).
type phase struct {
	wall      time.Duration
	refWall   time.Duration // wall in reference time
	index     []float64     // host speed index at each round boundary
	run       []float64     // each round's run share
	attempted int64
	failed    int64
	err       error

	acked       []int64   // acked 256-report frames per distinct frame
	deviceAcked []int64   // acked device frames per distinct frame
	reportLat   []float64 // ms: send→ack (ingest), due→ack (device stream)
	reportCuts  []int     // where each round's samples begin in reportLat
	queryLat    []float64 // ms: send→last row decoded
	late        []float64 // ms the open-loop stream sent after its due time
	queries     int64
}

// add folds one round into the phase, scaling its durations by the
// round's reference-time factor f.
func (ph *phase) add(r *phase, f float64) {
	ph.wall += r.wall
	ph.refWall += scale(r.wall, f)
	ph.attempted += r.attempted
	ph.failed += r.failed
	if ph.err == nil {
		ph.err = r.err
	}
	for i, a := range r.acked {
		ph.acked[i] += a
	}
	for i, a := range r.deviceAcked {
		ph.deviceAcked[i] += a
	}
	ph.reportCuts = append(ph.reportCuts, len(ph.reportLat))
	for _, x := range r.reportLat {
		ph.reportLat = append(ph.reportLat, x*f)
	}
	for _, x := range r.queryLat {
		ph.queryLat = append(ph.queryLat, x*f)
	}
	ph.late = append(ph.late, r.late...)
	ph.queries += r.queries
}

// timedPhase runs the workload for servingRounds(seconds) rounds of
// servingRound, measuring the host before the first and after every round,
// and returns their sum in reference time. A round that fails outright (an
// error with no failed operation behind it) ends the phase.
func (env *servingEnv) timedPhase(ctx context.Context, c *client, m *hostMeter, seconds float64, query bool) *phase {
	nproc := runtime.NumCPU()
	total := &phase{acked: make([]int64, ingestDistinct), deviceAcked: make([]int64, deviceDistinct)}
	clock := newRefClock(m)
	for r := 0; r < servingRounds(seconds); r++ {
		deadline := time.Now().Add(servingRound)
		var ph *phase
		if query {
			ph = env.queryLoop(ctx, c, max(1, nproc-1), deadline)
		} else {
			ph = env.ingestLoop(ctx, c, nproc, deadline, 0)
		}
		total.add(ph, clock.endRound())
		if ph.err != nil && ph.failed == 0 {
			break
		}
	}
	total.index, total.run = clock.index, clock.run
	return total
}

func (ph *phase) ackedReports() int64 {
	var n int64
	for _, a := range ph.acked {
		n += a * ingestFrameSize
	}
	for _, a := range ph.deviceAcked {
		n += a * deviceFrameSize
	}
	return n
}

// ingestLoop runs senders closed-loop senders posting 256-report frames
// until deadline (or, with a zero deadline, until limit frames were sent).
func (env *servingEnv) ingestLoop(ctx context.Context, c *client, senders int, deadline time.Time, limit int64) *phase {
	ph := &phase{acked: make([]int64, ingestDistinct)}
	bodies, keys := env.in.frames.bodies, env.in.frameKeys
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var exhausted atomic.Bool
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acked := make([]int64, ingestDistinct)
			var lat []float64
			var attempted, failed int64
			var firstErr error
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := env.keyNext.Add(1) - 1
				if deadline.IsZero() && i >= limit {
					break
				}
				if i >= int64(len(keys)) {
					exhausted.Store(true)
					break
				}
				f := int(i % int64(len(bodies)))
				attempted++
				t0 := time.Now()
				if err := c.postReports(ctx, bodies[f], keys[i]); err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, ms(time.Since(t0)))
				acked[f]++
			}
			mu.Lock()
			defer mu.Unlock()
			for f, a := range acked {
				ph.acked[f] += a
			}
			ph.reportLat = append(ph.reportLat, lat...)
			ph.attempted += attempted
			ph.failed += failed
			if ph.err == nil {
				ph.err = firstErr
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	if exhausted.Load() {
		ph.err = errors.Join(ph.err, fmt.Errorf("idempotency key pool (%d keys) exhausted", len(keys)))
	}
	return ph
}

// queryLoop runs analysts closed-loop analysts over the seeded query
// sequence and one open-loop device stream posting 16-report frames at
// deviceRate, both until deadline.
func (env *servingEnv) queryLoop(ctx context.Context, c *client, analysts int, deadline time.Time) *phase {
	ph := &phase{acked: make([]int64, ingestDistinct), deviceAcked: make([]int64, deviceDistinct)}
	bodies, err := queryBodies(servedN)
	if err != nil {
		ph.err = err
		return ph
	}
	rows := make([]int, len(ldp.PaperWorkloads))
	for i, name := range ldp.PaperWorkloads {
		w, err := ldp.WorkloadByName(name, servedN)
		if err != nil {
			ph.err = err
			return ph
		}
		rows[i] = w.Queries()
	}
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	fail := func(err error) {
		mu.Lock()
		ph.failed++
		if ph.err == nil {
			ph.err = err
		}
		mu.Unlock()
	}
	for a := 0; a < analysts; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var attempted int64
			for time.Now().Before(deadline) {
				i := env.queryNext.Add(1) - 1
				if i >= int64(len(env.in.queries)) {
					fail(fmt.Errorf("query sequence (%d entries) exhausted", len(env.in.queries)))
					break
				}
				q := env.in.queries[i]
				attempted++
				got := 0
				t0 := time.Now()
				info, err := c.query(ctx, bodies[q.workload*numModes+q.mode], func(transport.QueryRow) bool { got++; return true })
				d := time.Since(t0)
				if err == nil && (got != rows[q.workload] || info.TotalRows != got) {
					err = fmt.Errorf("%s: %d rows, want %d", ldp.PaperWorkloads[q.workload], got, rows[q.workload])
				}
				if err != nil {
					fail(err)
					continue
				}
				lat = append(lat, ms(d))
			}
			mu.Lock()
			ph.queryLat = append(ph.queryLat, lat...)
			ph.attempted += attempted
			ph.queries += int64(len(lat))
			mu.Unlock()
		}()
	}
	// The device stream: frame k is due at start + k/deviceRate whatever
	// happened to frame k-1, and its latency runs from that due time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		period := time.Second / deviceRate
		var lat, late []float64
		var attempted int64
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * period)
			if !due.Before(deadline) {
				break
			}
			key := env.deviceNext
			if key >= len(env.in.deviceKeys) {
				fail(fmt.Errorf("device key pool (%d keys) exhausted", len(env.in.deviceKeys)))
				break
			}
			env.deviceNext++ // only this goroutine advances deviceNext
			time.Sleep(time.Until(due))
			late = append(late, ms(time.Since(due)))
			f := k % deviceDistinct
			attempted++
			if err := c.postReports(ctx, env.in.deviceFrame.bodies[f], env.in.deviceKeys[key]); err != nil {
				fail(err)
				continue
			}
			lat = append(lat, ms(time.Since(due)))
			ph.deviceAcked[f]++ // only this goroutine writes deviceAcked
		}
		mu.Lock()
		ph.reportLat, ph.late = lat, late
		ph.attempted += attempted
		mu.Unlock()
	}()
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// checkServing runs the correctness gates after the timed phases:
// exactly-once (the shards' counts sum to the acked reports plus the
// pre-fill) and a merged state bit-identical to a reference accumulator
// built in-process from the acked frames; with checkQueries, one answer per
// (workload, mode) is compared bit for bit with an in-process Estimator on
// the same snapshot.
func (env *servingEnv) checkServing(ctx context.Context, phases []*phase, checkQueries bool) error {
	// Accumulators are integer-valued, so each distinct frame's state
	// scaled by its ack count sums exactly.
	ref := make([]float64, env.agg.StateLen())
	var refCount float64
	absorb := func(fs *frameSet, counts []int64) error {
		for f, cnt := range counts {
			if cnt == 0 {
				continue
			}
			one, err := ldp.NewServer(env.agg, env.w)
			if err != nil {
				return err
			}
			if err := one.IngestBatch(fs.reports[f]); err != nil {
				return err
			}
			for i, v := range one.State() {
				ref[i] += float64(cnt) * v
			}
			refCount += float64(cnt) * one.Count()
		}
		return nil
	}
	if err := absorb(env.in.frames, env.prefilled); err != nil {
		return err
	}
	for _, ph := range phases {
		if err := absorb(env.in.frames, ph.acked); err != nil {
			return err
		}
		if err := absorb(env.in.deviceFrame, ph.deviceAcked); err != nil {
			return err
		}
	}

	var shardSum float64
	for _, sh := range env.st.shards {
		shardSum += sh.col.Count()
	}
	if shardSum != refCount {
		return fmt.Errorf("exactly-once: shards hold %.0f reports, %.0f were acked (pre-fill included)", shardSum, refCount)
	}

	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	body, hdr, err := get(ctx, hc, env.st.url+"/snapshot")
	if err != nil {
		return err
	}
	if stale := hdr.Get(ldp.CoverageStaleHeader); stale != "0" || hdr.Get(ldp.CoverageMergedHeader) != fmt.Sprint(numShards) {
		return fmt.Errorf("merged snapshot coverage %q", hdr.Get(ldp.CoverageHeader))
	}
	ts, err := transport.DecodeSnapshotFrame(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ts.Count != refCount {
		return fmt.Errorf("merged count %.0f, reference %.0f", ts.Count, refCount)
	}
	if len(ts.State) != len(ref) {
		return fmt.Errorf("merged state has %d entries, reference %d", len(ts.State), len(ref))
	}
	for i := range ref {
		if math.Float64bits(ts.State[i]) != math.Float64bits(ref[i]) {
			return fmt.Errorf("merged state[%d] = %v, reference %v", i, ts.State[i], ref[i])
		}
	}
	if !checkQueries {
		return nil
	}
	snap := ldp.NewSnapshot(ts.State, ts.Count, ts.Epoch, ts.Info)
	return env.checkAnswers(ctx, snap)
}

// checkAnswers posts one query per (workload, mode) to the router and
// compares every row bit for bit with an in-process Estimator on snap, the
// merged snapshot the router served just before; the result must name
// snap's epoch and count.
func (env *servingEnv) checkAnswers(ctx context.Context, snap ldp.Snapshot) error {
	c := newClient(env.st.url, 1, env.rec)
	defer c.close()
	bodies, err := queryBodies(servedN)
	if err != nil {
		return err
	}
	for wi, name := range ldp.PaperWorkloads {
		w, err := ldp.WorkloadByName(name, servedN)
		if err != nil {
			return err
		}
		est, err := ldp.NewEstimator(env.agg, w)
		if err != nil {
			return err
		}
		for mode := 0; mode < numModes; mode++ {
			var got []transport.QueryRow
			info, err := c.query(ctx, bodies[wi*numModes+mode], func(r transport.QueryRow) bool { got = append(got, r); return true })
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, modeNames[mode], err)
			}
			if info.Epoch != snap.Epoch() || info.Count != snap.Count() {
				return fmt.Errorf("%s/%s: answered at epoch %d count %.0f, snapshot is epoch %d count %.0f",
					name, modeNames[mode], info.Epoch, info.Count, snap.Epoch(), snap.Count())
			}
			want, err := expectedRows(est, snap, mode)
			if err != nil {
				return err
			}
			if len(got) != len(want) {
				return fmt.Errorf("%s/%s: %d rows, want %d", name, modeNames[mode], len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i], mode) {
					return fmt.Errorf("%s/%s: row %d is %+v, in-process estimator gives %+v", name, modeNames[mode], i, got[i], want[i])
				}
			}
		}
	}
	return nil
}

// expectedRows computes a query's rows in-process the way the router
// answers each mode.
func expectedRows(est *ldp.Estimator, snap ldp.Snapshot, mode int) ([]transport.QueryRow, error) {
	answers, err := est.Answers(snap)
	if err != nil {
		return nil, err
	}
	rows := make([]transport.QueryRow, len(answers))
	for i, a := range answers {
		rows[i] = transport.QueryRow{Index: i, Answer: a}
	}
	switch mode {
	case modeVariance:
		err = est.VarianceStream(snap, func(i int, v float64) bool { rows[i].Variance = v; return true })
	case modeCI:
		i := 0
		err = est.AnswerStream(snap, queryLevel, func(a ldp.QueryAnswer) bool {
			rows[i] = transport.QueryRow{Index: i, Answer: a.Answer, Variance: a.Variance, Low: a.CI.Low, High: a.CI.High}
			i++
			return true
		})
	}
	return rows, err
}

func sameBits(a, b transport.QueryRow, mode int) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	ok := a.Index == b.Index && eq(a.Answer, b.Answer)
	if mode != modeAnswers {
		ok = ok && eq(a.Variance, b.Variance)
	}
	if mode == modeCI {
		ok = ok && eq(a.Low, b.Low) && eq(a.High, b.High)
	}
	return ok
}
