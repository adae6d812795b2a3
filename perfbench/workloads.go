package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ldp "repro"
)

func runIngest(ctx context.Context, o options) (*report, error) { return runServing(ctx, o, false) }
func runQuery(ctx context.Context, o options) (*report, error)  { return runServing(ctx, o, true) }

// runServing sets the stack up servingSetups times, runs the timed phase
// on the last deployment (twice with --trace 1: untraced, then traced),
// checks the outputs and reports. Every timing is in reference time.
func runServing(ctx context.Context, o options, query bool) (*report, error) {
	phases := 1
	if o.trace {
		phases = 2
	}
	meter := newCoreMeter(servingRound)
	defer meter.close()
	rec := newRecorder()
	var env *servingEnv
	var setups []float64
	loadSeconds := float64(phases*servingRounds(o.seconds)) * servingRound.Seconds()
	for i := 0; i < servingSetups; i++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("setup%d", i))
		d, err := timedRef(meter, func() (err error) {
			env, err = setupServing(ctx, dir, o.seed, loadSeconds, query, rec)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < servingSetups-1 {
			if err := env.st.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer env.st.close()
	lower, err := ldp.LowerBoundObjective(env.w, servedEps)
	if err != nil {
		return nil, err
	}

	c := newClient(env.st.url, runtime.NumCPU(), rec)
	defer c.close()
	runPhase := func() *phase { return env.timedPhase(ctx, c, meter, o.seconds, query) }
	plain := runPhase()
	all := []*phase{plain}
	var traced *phase
	var lay layerInputs
	if o.trace {
		urls := []string{env.st.url}
		for _, sh := range env.st.shards {
			urls = append(urls, "http://"+sh.addr)
		}
		if lay.before, err = scrapeTiers(ctx, urls); err != nil {
			return nil, err
		}
		mem := readMem()
		rec.on.Store(true)
		traced = runPhase()
		rec.on.Store(false)
		lay.mem = memSince(mem)
		if lay.after, err = scrapeTiers(ctx, urls); err != nil {
			return nil, err
		}
		lay.spans = rec.take()
		all = append(all, traced)
	}
	rep := newReport()
	for _, ph := range all {
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
		if ph.err != nil && ph.failed == 0 {
			return nil, ph.err
		}
	}
	if err := env.checkServing(ctx, all, query); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	if o.trace {
		return rep, env.layerReport(rep, o, query, plain, traced, lay)
	}

	rep.setNote("setup_s", "s", medianOf(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.setNote("strategy_gap", "ratio", env.served.Objective/lower, "served AllRange n=64 strategy")
	ops, what := float64(plain.ackedReports()), "acked reports"
	if query {
		ops, what = float64(plain.queries), "queries"
	}
	rep.setNote("throughput_per_s", "1/s", ops/plain.refWall.Seconds(), fmt.Sprintf("%s; %.0f/s raw over %d rounds, median speed index %.3f, run share %.3f",
		what, ops/plain.wall.Seconds(), len(plain.run), medianOf(plain.index), medianOf(plain.run)))
	if query {
		return rep, setLatency(rep, plain.queryLat, 0.99)
	}
	// A second of ingest holds thousands of reports, enough for a p99 of
	// its own; the median over seconds keeps a few seconds of a host's
	// stalls from setting the run's tail.
	tail, windows, err := windowQuantile(plain.reportLat, plain.reportCuts, ingestTailRounds, 0.99)
	if err != nil {
		return nil, err
	}
	p50, err := median(plain.reportLat) // sorts the samples, so after the windows
	if err != nil {
		return nil, err
	}
	rep.setQuantile("p50_ms", p50)
	rep.setNote("tail_ms", "ms", tail.Value, fmt.Sprintf("median over %d windows of %v of each window's p99; %d samples, max %.4f",
		windows, time.Duration(ingestTailRounds)*servingRound, tail.N, tail.Max))
	return rep, nil
}

// ingestTailRounds is how many rounds make one window of ingest's tail_ms.
const ingestTailRounds = 4

// setLatency reports p50_ms and tail_ms, the tail-quantile of samples.
func setLatency(rep *report, samples []float64, tailQ float64) error {
	p50, err := median(samples)
	if err != nil {
		return err
	}
	tail, err := quantile(samples, tailQ)
	if err != nil {
		return err
	}
	rep.setQuantile("p50_ms", p50)
	rep.setQuantile("tail_ms", tail)
	return nil
}

// optimizeSetups is how many times the optimize run builds its jobs, each
// from a collected heap; setup_s is the median.
const optimizeSetups = 9

// pairRun is one repetition of the optimize workload's two jobs.
type pairRun struct {
	results []optResult
	wall    time.Duration // raw, checks and calibrations included
}

// runPairs repeats the job pair, each time from a collected heap so the
// peak resident set does not depend on how many ran, while another
// repetition as long as the last still ends within seconds; at least one
// runs. Every optimizer timing is in reference time on clock.
func runPairs(ctx context.Context, jobs []optJob, seconds float64, clock *refClock) ([]pairRun, error) {
	var out []pairRun
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out) == 0 || time.Now().Add(out[len(out)-1].wall).Before(deadline) {
		runtime.GC()
		t0 := time.Now()
		rs, err := runOptimizeJobs(ctx, jobs, clock)
		if err != nil {
			return nil, err
		}
		out = append(out, pairRun{results: rs, wall: time.Since(t0)})
	}
	return out, nil
}

// pairTotals sums, over every job of every repetition, the iterations run
// and the optimizer's time in reference time.
func pairTotals(pairs []pairRun) (iters int, work time.Duration) {
	for _, p := range pairs {
		for _, r := range p.results {
			iters += r.res.Iterations
			work += r.trace.work
		}
	}
	return iters, work
}

// optimizeTail is the percentile tail_ms reports on optimize: one
// repetition yields about 500 AllRange n=128 iterations, too few for a p99
// with minBeyond samples beyond it.
const optimizeTail = 0.90

// runOptimize runs the two optimize jobs back to back, repeating the pair
// (see runPairs), and reports over every repetition in reference time.
func runOptimize(ctx context.Context, o options) (*report, error) {
	meter := newInlineMeter(optimizeRound)
	var jobs []optJob
	var setups []float64
	for i := 0; i < optimizeSetups; i++ {
		runtime.GC()
		d, err := timedRef(meter, func() (err error) {
			jobs, err = setupOptimize()
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	clock := newRefClock(meter)
	plain, err := runPairs(ctx, jobs, o.seconds, clock)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.Attempted = int64(len(plain) * len(jobs))
	if o.trace {
		mem := readMem()
		tclock := newRefClock(meter)
		traced, err := runPairs(ctx, jobs, o.seconds, tclock)
		if err != nil {
			return nil, err
		}
		rep.Attempted += int64(len(traced) * len(jobs))
		return rep, optimizeLayerReport(rep, plain, traced, memSince(mem), tclock)
	}
	var gaps []float64
	for _, p := range plain {
		for _, r := range p.results {
			if r.job.tag == "n128" {
				gaps = append(gaps, r.trace.gaps...)
			}
		}
	}
	iters, work := pairTotals(plain)
	rep.setNote("setup_s", "s", medianOf(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.setNote("throughput_per_s", "1/s", float64(iters)/work.Seconds(),
		fmt.Sprintf("optimizer iterations over %d repetitions; %.3f/s raw, median speed index %.3f, run share %.3f",
			len(plain), float64(iters)/rawWork(plain).Seconds(), medianOf(clock.index), medianOf(clock.run)))
	rep.setNote("strategy_gap", "ratio", strategyGap(plain[0].results), "geometric mean over Prefix n=64, AllRange n=128")
	if err := setLatency(rep, gaps, optimizeTail); err != nil {
		return nil, err
	}
	rep.notes["p50_ms"] += ", AllRange n=128 iteration time"
	rep.notes["tail_ms"] += ", AllRange n=128 iteration time"
	return rep, nil
}

// rawWork is the optimizer's raw time over every job of every repetition.
func rawWork(pairs []pairRun) time.Duration {
	var d time.Duration
	for _, p := range pairs {
		for _, r := range p.results {
			d += r.trace.raw
		}
	}
	return d
}
