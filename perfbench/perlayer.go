package main

import (
	"fmt"
	"path/filepath"
	"time"

	ldp "repro"
)

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them; a layer the workload does not exercise reads 0 (the
// optimizer's n=128 job on a serving workload, the serving tiers on
// optimize). README.md maps each to the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"transport.encode_ns_per_report", "ns"},
	{"transport.decode_ns_per_report", "ns"},
	{"client.reports_self_ms", "ms"},
	{"client.query_self_ms", "ms"},
	{"router.reports_self_ms", "ms"},
	{"router.query_self_ms", "ms"},
	{"fleet.forward_ms", "ms"},
	{"fleet.snapshot_ms", "ms"},
	{"fleet.forward_retries", "count"},
	{"shard.ingest_ms", "ms"},
	{"shard.snapshot_ms", "ms"},
	{"shard.busy_frac", "ratio"},
	{"collector.snapshot_cache_hit_ratio", "ratio"},
	{"collector.idempotent_replays", "count"},
	{"durable.wal_bytes_per_report", "B"},
	{"durable.commits_per_post", "ratio"},
	{"durable.checkpoints", "count"},
	{"estimator.answers_ms", "ms"},
	{"estimator.variance_ms", "ms"},
	{"estimator.ci_ms", "ms"},
	{"opt.pilot_s.n64", "s"},
	{"opt.pilot_s.n128", "s"},
	{"opt.iter_ms.n64", "ms"},
	{"opt.iter_ms.n128", "ms"},
	{"opt.iters.n64", "count"},
	{"opt.iters.n128", "count"},
	{"opt.allocs_per_iter", "count"},
	{"linalg.mulatb_ms.n128", "ms"},
	{"opt.project_ms.n128", "ms"},
	{"core.objgrad_ms.n128", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.report_p50_ms", "ms"},
	{"loadgen.report_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.path_ratio", "ratio"},
	{"host.speed_index", "ratio"},
	{"host.run_share", "ratio"},
	{"error_rate", "ratio"},
}

// fillPerLayer adds every per-layer metric the run did not measure, as 0.
func fillPerLayer(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.setNote(m.name, m.unit, 0, "layer not exercised by this workload")
		}
	}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: no per-layer metric " + name)
}

func (r *report) layer(name string, v float64, note string) { r.setNote(name, unitOf(name), v, note) }

// layerInputs is what the traced phase of a serving run collected.
type layerInputs struct {
	before, after scrape
	mem           memDelta
	spans         []Span
}

// spanStats are the span-derived per-layer numbers of one traced phase.
type spanStats struct {
	self map[string][]float64 // ms of self time, by span name
	dur  map[string][]float64 // ms of duration, by span name
	crit []float64            // per query: self time of the slowest shard hop
	busy float64              // mean over shards of the fraction of the phase a handler ran
}

// analyze links spans into request trees and collects self times. For a
// query, the blocking hop is the fleet.snapshot child that ended last.
func analyze(spans []Span, shards int) spanStats {
	link(spans)
	self := selfTimes(spans)
	st := spanStats{self: map[string][]float64{}, dur: map[string][]float64{}}
	lastChild := map[int]int{} // router.query span → its latest-ending child
	perShard := map[string][][2]int64{}
	var lo, hi int64 = 1 << 62, 0
	var clientIvs [][2]int64
	for _, s := range spans {
		st.self[s.Name] = append(st.self[s.Name], float64(self[s.ID])/1e6)
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.dur())/1e6)
		if s.Name == "fleet.snapshot" && s.Parent >= 0 {
			if c, ok := lastChild[s.Parent]; !ok || spans[c].End < s.End {
				lastChild[s.Parent] = s.ID
			}
		}
		if tier(s.Name) == tierOf["shard"] {
			perShard[s.Peer] = append(perShard[s.Peer], [2]int64{s.Start, s.End})
		}
		if tier(s.Name) == tierOf["client"] {
			lo, hi = min(lo, s.Start), max(hi, s.End)
			clientIvs = append(clientIvs, [2]int64{s.Start, s.End})
		}
	}
	for _, c := range lastChild {
		st.crit = append(st.crit, float64(self[c])/1e6)
	}
	// The phase is the time some client request was open, which leaves
	// out the host-speed measurements between rounds.
	if open := covered(lo, hi, clientIvs); open > 0 {
		for _, ivs := range perShard {
			st.busy += float64(covered(lo, hi, ivs)) / float64(open) / float64(shards)
		}
	}
	return st
}

// The blocking path's median self times must add up to the client's median
// latency within this tolerance, or the spans lost or double-counted time.
// Medians do not add exactly; 0.92–0.98 was measured on 2 cores.
const pathRatioMin, pathRatioMax = 0.7, 1.3

// layerReport fills the per-layer metrics of a traced serving run.
func (env *servingEnv) layerReport(rep *report, o options, query bool, plain, traced *phase, lay layerInputs) error {
	st := analyze(lay.spans, numShards) // links the spans, so the dump carries parents
	if err := writeSpans(filepath.Join(filepath.Dir(o.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)), lay.spans); err != nil {
		return err
	}
	for _, n := range []string{"client.reports", "client.query", "router.reports", "router.query"} {
		rep.layer(n+"_self_ms", medianOf(st.self[n]), fmt.Sprintf("median self time of %d spans", len(st.self[n])))
	}
	rep.layer("fleet.forward_ms", medianOf(st.self["fleet.forward"]), "median self time of the router→shard POST /reports hop")
	rep.layer("fleet.snapshot_ms", medianOf(st.crit), "median self time of each query's slowest shard snapshot hop")
	rep.layer("shard.ingest_ms", medianOf(st.dur["shard.reports"]), "median shard POST /reports handler time")
	rep.layer("shard.snapshot_ms", medianOf(st.dur["shard.snapshot"]), "median shard GET /snapshot handler time")
	rep.layer("shard.busy_frac", st.busy, "")

	// The blocking path's self times against the client's median.
	client, path := "client.reports", []float64{medianOf(st.self["client.reports"]), medianOf(st.self["router.reports"]), medianOf(st.self["fleet.forward"]), medianOf(st.dur["shard.reports"])}
	if query {
		client, path = "client.query", []float64{medianOf(st.self["client.query"]), medianOf(st.self["router.query"]), medianOf(st.crit), medianOf(st.dur["shard.snapshot"])}
	}
	sum := 0.0
	for _, p := range path {
		sum += p
	}
	c := medianOf(st.dur[client])
	ratio := sum / c
	if !(ratio >= pathRatioMin && ratio <= pathRatioMax) {
		return fmt.Errorf("trace: blocking-path self times sum to %.4f ms, the client's median is %.4f ms (ratio outside [%g, %g])", sum, c, pathRatioMin, pathRatioMax)
	}
	rep.layer("trace.path_ratio", ratio, fmt.Sprintf("Σ median self times %.4f ms over median %s %.4f ms", sum, client, c))

	b, a := lay.before, lay.after
	posts := delta(b[1:], a[1:], "ldp_http_requests_total", `endpoint="reports"`) // shards only; b[0] is the router
	reports := float64(traced.ackedReports())
	hits, merges := delta(b, a, "ldp_collector_snapshot_cache_hits_total"), delta(b, a, "ldp_collector_snapshot_merges_total")
	if hits+merges > 0 {
		rep.layer("collector.snapshot_cache_hit_ratio", hits/(hits+merges), fmt.Sprintf("%.0f hits, %.0f merges", hits, merges))
	}
	rep.layer("collector.idempotent_replays", delta(b, a, "ldp_ingest_idempotent_replays_total"), "")
	rep.layer("fleet.forward_retries", delta(b, a, "ldp_fleet_forward_retries_total"), "")
	rep.layer("durable.wal_bytes_per_report", delta(b, a, "ldp_wal_commit_bytes_sum")/reports, "")
	if posts > 0 {
		rep.layer("durable.commits_per_post", delta(b, a, "ldp_wal_commit_bytes_count")/posts, fmt.Sprintf("%.0f shard POSTs", posts))
	}
	rep.layer("durable.checkpoints", delta(b, a, "ldp_checkpoint_seq"), "")

	ops, opName := reports, "report"
	primary := func(ph *phase) float64 { return float64(ph.ackedReports()) / ph.refWall.Seconds() }
	if query {
		ops, opName = float64(traced.queries), "query"
		primary = func(ph *phase) float64 { return float64(ph.queries) / ph.refWall.Seconds() }
	}
	rep.layer("runtime.alloc_bytes_per_op", float64(lay.mem.allocBytes)/ops, "per "+opName)
	rep.layer("runtime.gc_pause_ms", ms(lay.mem.gcPause), "total stop-the-world pause in the traced phase")
	rep.layer("runtime.gc_cycles", float64(lay.mem.gcCycles), "")
	rep.layer("trace.overhead_pct", 100*(primary(plain)/primary(traced)-1), "untraced ÷ traced throughput − 1, in reference time")
	setHost(rep, traced.index, traced.run)
	if err := setLoadgen(rep, traced); err != nil {
		return err
	}

	enc, dec, err := codecReplay(env.in.frames)
	if err != nil {
		return err
	}
	rep.layer("transport.encode_ns_per_report", enc, "")
	rep.layer("transport.decode_ns_per_report", dec, "")
	var snaps []ldp.Snapshot
	for _, sh := range env.st.shards {
		snaps = append(snaps, sh.col.Snap())
	}
	snap, err := ldp.MergeSnapshots(snaps...)
	if err != nil {
		return err
	}
	ans, vr, ci, err := estimatorReplay(env.agg, snap)
	if err != nil {
		return err
	}
	rep.layer("estimator.answers_ms", ans, "summed over the six workloads")
	rep.layer("estimator.variance_ms", vr, "summed over the six workloads")
	rep.layer("estimator.ci_ms", ci, "summed over the six workloads")
	setOptTrace(rep, "n64", []optTrace{env.optTrace}, []int{env.served.Iterations}, "the served AllRange n=64 strategy's optimization at set-up")
	rep.layer("opt.allocs_per_iter", env.optTrace.allocsPerIter(), "")
	if err := setKernels(rep); err != nil {
		return err
	}
	rep.layer("error_rate", float64(rep.Failed)/float64(rep.Attempted), "")
	fillPerLayer(rep)
	return nil
}

// setLoadgen reports the client-side report latency (the open-loop device
// stream on query) and how late the open-loop generator ran.
func setLoadgen(rep *report, ph *phase) error {
	if len(ph.reportLat) > 0 {
		p50, err := median(ph.reportLat)
		if err != nil {
			return err
		}
		p99, err := tailQuantile(ph.reportLat)
		if err != nil {
			return err
		}
		rep.layer("loadgen.report_p50_ms", p50.Value, fmt.Sprintf("%d samples", p50.N))
		rep.layer("loadgen.report_p99_ms", p99.Value, fmt.Sprintf("p%g of %d samples, max %.4f", 100*p99.Q, p99.N, p99.Max))
	}
	if len(ph.late) > 0 {
		late, err := tailQuantile(ph.late)
		if err != nil {
			return err
		}
		rep.layer("loadgen.late_p99_ms", late.Value, fmt.Sprintf("p%g of %d samples, max %.4f", 100*late.Q, late.N, late.Max))
	}
	return nil
}

// setHost reports the host's state over the traced phase (hostspeed.go).
func setHost(rep *report, index, run []float64) {
	rep.layer("host.speed_index", medianOf(index), fmt.Sprintf("median of %d measurements", len(index)))
	rep.layer("host.run_share", medianOf(run), fmt.Sprintf("median of %d rounds", len(run)))
}

func setOptTrace(rep *report, tag string, trs []optTrace, iters []int, note string) {
	var pilots, gaps []float64
	for _, tr := range trs {
		pilots = append(pilots, tr.pilot.Seconds())
		gaps = append(gaps, tr.gaps...)
	}
	rep.layer("opt.pilot_s."+tag, medianOf(pilots), note)
	rep.layer("opt.iter_ms."+tag, medianOf(gaps), fmt.Sprintf("median of %d iteration gaps", len(gaps)))
	rep.layer("opt.iters."+tag, float64(iters[0]), "")
}

func setKernels(rep *report) error {
	mul, proj, obj, err := kernelReplay()
	if err != nil {
		return err
	}
	rep.layer("linalg.mulatb_ms.n128", mul, "median of 20 replays")
	rep.layer("opt.project_ms.n128", proj, "median of 20 replays")
	rep.layer("core.objgrad_ms.n128", obj, "median of 20 replays")
	return nil
}

// optimizeLayerReport fills the per-layer metrics of a traced optimize run.
// The optimizer layers are medians over every traced repetition, in
// reference time; the overhead compares the traced and untraced reference
// time per iteration.
func optimizeLayerReport(rep *report, plain, traced []pairRun, mem memDelta, clock *refClock) error {
	byTag := map[string][]optTrace{}
	iters := map[string][]int{}
	allocs, allocIters := 0.0, 0
	for _, p := range traced {
		for _, r := range p.results {
			byTag[r.job.tag] = append(byTag[r.job.tag], r.trace)
			iters[r.job.tag] = append(iters[r.job.tag], r.res.Iterations)
			if n := r.trace.callbacks - 1; n > 0 {
				allocs += r.trace.allocsPerIter() * float64(n)
				allocIters += n
			}
		}
	}
	for tag, trs := range byTag {
		setOptTrace(rep, tag, trs, iters[tag], "time from the call to the first iteration")
	}
	if allocIters > 0 {
		rep.layer("opt.allocs_per_iter", allocs/float64(allocIters), "heap objects per main-loop iteration")
	}
	if err := setKernels(rep); err != nil {
		return err
	}
	tIters, tWork := pairTotals(traced)
	pIters, pWork := pairTotals(plain)
	rep.layer("runtime.alloc_bytes_per_op", float64(mem.allocBytes)/float64(tIters), "per optimizer iteration")
	rep.layer("runtime.gc_pause_ms", ms(mem.gcPause), "total stop-the-world pause in the traced phase")
	rep.layer("runtime.gc_cycles", float64(mem.gcCycles), "")
	perIter := func(work time.Duration, n int) float64 { return work.Seconds() / float64(n) }
	rep.layer("trace.overhead_pct", 100*(perIter(tWork, tIters)/perIter(pWork, pIters)-1), "traced ÷ untraced time per iteration − 1, in reference time")
	setHost(rep, clock.index, clock.run)
	rep.layer("error_rate", 0, "")
	fillPerLayer(rep)
	return nil
}
