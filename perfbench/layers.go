package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	ldp "repro"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/transport"
)

// Per-layer numbers come from three sources: spans the benchmark records at
// each tier boundary (trace.go), counters differenced across the traced
// phase from every tier's GET /metrics, and public functions replayed on the
// run's own data.

// promCounters parses a Prometheus text exposition into value per series
// line ("name{labels}").
func promCounters(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// scrape is one reading of every tier's /metrics.
type scrape []map[string]float64

func scrapeTiers(ctx context.Context, urls []string) (scrape, error) {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var out scrape
	for _, u := range urls {
		b, _, err := get(ctx, hc, u+"/metrics")
		if err != nil {
			return nil, err
		}
		out = append(out, promCounters(b))
	}
	return out, nil
}

// sum adds every series of family name (the bare name, or name{...}) whose
// labels contain every one of the given label pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for _, tier := range s {
	series:
		for k, v := range tier {
			if k != name && !strings.HasPrefix(k, name+"{") {
				continue
			}
			for _, l := range labels {
				if !strings.Contains(k, l) {
					continue series
				}
			}
			total += v
		}
	}
	return total
}

// delta is after − before for one family.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// replay times fn reps times after one warm-up call and returns the median
// duration in ms.
func replay(reps int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return medianOf(ts), nil
}

// codecReplay times ldp.EncodeReportsFrame and transport.DecodeReports on
// the workload's own frames, in ns per report.
func codecReplay(fs *frameSet) (encNs, decNs float64, err error) {
	reports := 0
	for _, r := range fs.reports {
		reports += len(r)
	}
	var buf bytes.Buffer
	enc, err := replay(20, func() error {
		for _, r := range fs.reports {
			buf.Reset()
			if err := ldp.EncodeReportsFrame(&buf, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	dec, err := replay(20, func() error {
		for _, b := range fs.bodies {
			if _, err := transport.DecodeReports(bytes.NewReader(b)); err != nil {
				return err
			}
		}
		return nil
	})
	perReport := 1e6 / float64(reports) // ms → ns, per report
	return enc * perReport, dec * perReport, err
}

// estimatorReplay times Estimator.Answers, VarianceStream and AnswerStream
// on snap, each summed over the paper's six workloads, in ms.
func estimatorReplay(agg ldp.Aggregator, snap ldp.Snapshot) (answers, variance, ci float64, err error) {
	for _, name := range ldp.PaperWorkloads {
		w, err := ldp.WorkloadByName(name, agg.Domain())
		if err != nil {
			return 0, 0, 0, err
		}
		est, err := ldp.NewEstimator(agg, w)
		if err != nil {
			return 0, 0, 0, err
		}
		a, err := replay(5, func() error { _, err := est.Answers(snap); return err })
		if err != nil {
			return 0, 0, 0, err
		}
		v, err := replay(5, func() error {
			return est.VarianceStream(snap, func(int, float64) bool { return true })
		})
		if err != nil {
			return 0, 0, 0, err
		}
		c, err := replay(5, func() error {
			return est.AnswerStream(snap, queryLevel, func(ldp.QueryAnswer) bool { return true })
		})
		if err != nil {
			return 0, 0, 0, err
		}
		answers, variance, ci = answers+a, variance+v, ci+c
	}
	return answers, variance, ci, nil
}

// kernelReplay times the optimizer's three per-iteration kernels on the
// n=128 shapes (m = 4n = 512): M = QᵀD⁻¹Q (linalg.MulAtBTo), the
// projection of Q onto the ε-LDP polytope (opt.ProjectMatrixInto), and the
// objective with its gradient (core.Workspace.ObjectiveGrad) on AllRange.
func kernelReplay() (mulAtB, project, objGrad float64, err error) {
	const n, m, eps = 128, 512, servedEps
	rng := rand.New(rand.NewSource(optimizeSeed))
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = rng.Float64()
	}
	z := linalg.Constant(m, (1+math.Exp(-eps))/(2*float64(m)))
	var proj opt.MatrixProjection
	var scratch opt.Scratch
	if err := opt.ProjectMatrixInto(&proj, &scratch, r, z, eps); err != nil {
		return 0, 0, 0, err
	}
	q := proj.Q
	dst := linalg.New(n, n)
	if mulAtB, err = replay(20, func() error { linalg.MulAtBTo(dst, q, q); return nil }); err != nil {
		return 0, 0, 0, err
	}
	var out opt.MatrixProjection
	if project, err = replay(20, func() error { return opt.ProjectMatrixInto(&out, &scratch, r, z, eps) }); err != nil {
		return 0, 0, 0, err
	}
	gram := ldp.AllRange(n).Gram()
	ws := core.NewWorkspace(m, n)
	grad := linalg.New(m, n)
	objGrad, err = replay(20, func() error { _, err := ws.ObjectiveGrad(q, gram, nil, grad); return err })
	return mulAtB, project, objGrad, err
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}
