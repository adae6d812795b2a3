package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	ldp "repro"
)

// optimizeSeed fixes the optimizer's initialization and step-size pilots, so
// every run does the same arithmetic and strategy_gap is exact.
const optimizeSeed = 7

// optJob is one of the optimize workload's two jobs: Prefix at n=64, then
// AllRange at n=128. Q is 128 KiB at n=64 and 512 KiB at n=128, either
// side of a typical L2 cache.
type optJob struct {
	tag   string // "n64", "n128"
	w     ldp.Workload
	lower float64 // Theorem 5.6 lower bound on the objective
}

// optTrace is what the WithProgress callback saw during one Optimize call.
// With a clock, its times are in reference time and exclude the host-speed
// measurements the callback makes between rounds; without one, they are raw.
type optTrace struct {
	pilot       time.Duration // call → first callback
	gaps        []float64     // ms between consecutive callbacks
	work        time.Duration // the whole call
	raw         time.Duration // the same in raw time
	callbacks   int           // one per main-loop iteration
	allocsFirst uint64        // heap objects allocated, at the first callback
	allocsLast  uint64        // and at the last
}

const allocsMetric = "/gc/heap/allocs:objects"

func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// optimizeTraced runs ldp.Optimize with the paper's defaults and a fixed
// seed, timing every main-loop iteration. Each callback costs one clock read
// and one runtime/metrics read. With a clock, the callback ends a round once
// the clock's round has passed, and the call's end ends one too, so every
// duration is scaled by its own round's factor and no calibration is
// counted as work.
func optimizeTraced(ctx context.Context, w ldp.Workload, eps float64, seed int64, clock *refClock) (*ldp.Optimized, optTrace, error) {
	tr := optTrace{gaps: make([]float64, 0, 512)}
	sample := []metrics.Sample{{Name: allocsMetric}}
	var pending []float64 // raw gaps of the current round, in ms
	var pendingWork time.Duration
	pilotScaled := false
	flush := func(f float64) {
		for _, g := range pending {
			tr.gaps = append(tr.gaps, g*f)
		}
		tr.work += scale(pendingWork, f)
		tr.raw += pendingWork
		if tr.callbacks > 0 && !pilotScaled {
			tr.pilot, pilotScaled = scale(tr.pilot, f), true
		}
		pending, pendingWork = pending[:0], 0
	}
	start := time.Now()
	mark := start // end of the last stretch of work counted
	res, err := ldp.Optimize(ctx, w, eps, ldp.WithSeed(seed), ldp.WithProgress(func(int, float64) {
		now := time.Now()
		if tr.callbacks == 0 {
			tr.pilot = now.Sub(start)
		} else {
			pending = append(pending, ms(now.Sub(mark)))
		}
		pendingWork += now.Sub(mark)
		tr.callbacks++
		a := heapAllocs(sample)
		if tr.callbacks == 1 {
			tr.allocsFirst = a
		}
		tr.allocsLast = a
		if clock != nil && clock.due() {
			flush(clock.endRound())
		}
		mark = time.Now()
	}))
	pendingWork += time.Since(mark)
	f := 1.0
	if clock != nil {
		f = clock.endRound()
	}
	flush(f)
	return res, tr, err
}

func (tr optTrace) allocsPerIter() float64 {
	if tr.callbacks < 2 {
		return 0
	}
	return float64(tr.allocsLast-tr.allocsFirst) / float64(tr.callbacks-1)
}

// setupOptimize builds the two jobs' workloads and lower bounds — what the
// analyst needs before the first timed optimize call.
func setupOptimize() ([]optJob, error) {
	jobs := []optJob{{tag: "n64", w: ldp.Prefix(64)}, {tag: "n128", w: ldp.AllRange(128)}}
	for i := range jobs {
		lb, err := ldp.LowerBoundObjective(jobs[i].w, servedEps)
		if err != nil {
			return nil, err
		}
		jobs[i].lower = lb
	}
	return jobs, nil
}

// optResult is one finished optimize job.
type optResult struct {
	job   optJob
	res   *ldp.Optimized
	trace optTrace
}

// runOptimizeJobs runs the jobs in order and checks each strategy: it must
// pass Strategy.Validate, and its objective recomputed with
// Strategy.Objective must equal the reported one.
func runOptimizeJobs(ctx context.Context, jobs []optJob, clock *refClock) ([]optResult, error) {
	var out []optResult
	for _, j := range jobs {
		res, tr, err := optimizeTraced(ctx, j.w, servedEps, optimizeSeed, clock)
		if err != nil {
			return nil, fmt.Errorf("optimize %s: %w", j.tag, err)
		}
		if err := checkStrategy(j, res, tr); err != nil {
			return nil, err
		}
		out = append(out, optResult{job: j, res: res, trace: tr})
	}
	return out, nil
}

// objectiveTol bounds the relative difference between the objective the
// optimizer reports and the one Strategy.Objective recomputes through its
// own (Cholesky-free) path: both are the same trace, summed in a different
// order.
const objectiveTol = 1e-9

func checkStrategy(j optJob, res *ldp.Optimized, tr optTrace) error {
	s := res.Strategy()
	if err := s.Validate(1e-9); err != nil {
		return fmt.Errorf("optimize %s: strategy invalid: %w", j.tag, err)
	}
	obj, err := s.Objective(j.w.Gram())
	if err != nil {
		return fmt.Errorf("optimize %s: recompute objective: %w", j.tag, err)
	}
	if math.Abs(obj-res.Objective) > objectiveTol*math.Abs(res.Objective) {
		return fmt.Errorf("optimize %s: reported objective %v, recomputed %v", j.tag, res.Objective, obj)
	}
	if res.Objective < j.lower*(1-1e-9) {
		return fmt.Errorf("optimize %s: objective %v below the Theorem 5.6 lower bound %v", j.tag, res.Objective, j.lower)
	}
	// Every accepted iteration reports progress; a step the blow-up
	// safeguard rejected counts as an iteration but reports nothing.
	if tr.callbacks == 0 || tr.callbacks > res.Iterations {
		return fmt.Errorf("optimize %s: %d progress callbacks for %d iterations", j.tag, tr.callbacks, res.Iterations)
	}
	return nil
}

// strategyGap is the geometric mean over results of objective ÷ lower bound.
func strategyGap(rs []optResult) float64 {
	logSum := 0.0
	for _, r := range rs {
		logSum += math.Log(r.res.Objective / r.job.lower)
	}
	return math.Exp(logSum / float64(len(rs)))
}
