// Command perfbench is the repository's end-to-end benchmark. It deploys
// the real serving stack in one process on loopback TCP — two durable
// collector shards behind a router — or runs the strategy optimizer, drives
// one workload from its own goroutines, checks that the outputs are
// correct, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload ingest|query|optimize --seed N --seconds S --trace 0|1
//	perfbench -compare a.json b.json
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once traced and reports per-layer numbers.
// README.md in this directory lists the workloads, the metrics and which
// per-layer metric should move which end-to-end one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	ldp "repro"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the result line plus the notes
// (sample counts, percentiles) printed beside each metric.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     map[string]string
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) setNote(name, unit string, v float64, note string) {
	r.set(name, unit, v)
	r.notes[name] = note
}

// setQuantile reports q under name with its percentile and sample count.
func (r *report) setQuantile(name string, q Quantile) {
	r.setNote(name, "ms", q.Value, fmt.Sprintf("p%g of %d samples, max %.4f", 100*q.Q, q.N, q.Max))
}

// envStamp records what a result was measured on. Results taken at
// different GOMAXPROCS are not comparable, and -compare refuses them.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Version    string  `json:"ldp_version"`
}

// options are the run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for this run, removed at exit
}

var workloads = map[string]func(context.Context, options) (*report, error){
	"ingest":   runIngest,
	"query":    runQuery,
	"optimize": runOptimize,
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "ingest, query or optimize")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the shards' data, results and span dumps")
	compare := flag.Bool("compare", false, "compare two result files (arguments) taken on the same environment")
	flag.Parse()
	if *compare {
		return compareResults(flag.Args())
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ingest|query|optimize, --seconds > 0, --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.set("peak_rss_mb", "MB", rss)
	}
	if err := checkNames(rep, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	env := envStamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Version: ldp.VersionString(),
	}
	if err := writeResult(*workdir, env, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-40s %14.6g %-8s %s\n", name, m.Value, m.Unit, rep.notes[name])
	}
	envLine, _ := json.Marshal(map[string]envStamp{"env": env})
	fmt.Println(string(envLine))
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd lists the metrics an untraced run reports on every workload;
// BENCHMARK.json declares the same names, units and bounds.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"strategy_gap", "ratio"},
	{"peak_rss_mb", "MB"},
}

// checkNames verifies a report carries exactly the declared metrics with
// their declared units.
func checkNames(rep *report, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(rep.Metrics) != len(want) {
		return fmt.Errorf("report has %d metrics, %d are declared", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s: reported %+v, declared unit %s", m.name, got, m.unit)
		}
	}
	return nil
}

// resultFile is what -compare reads: the stamp and the metrics.
type resultFile struct {
	Env    envStamp `json:"env"`
	Result *report  `json:"result"`
}

func writeResult(workdir string, env envStamp, rep *report) error {
	dir := filepath.Join(workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultFile{Env: env, Result: rep}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", env.Workload, env.Seed, env.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// compareResults prints new/old ratios for two result files of the same
// workload, refusing files measured at different GOMAXPROCS or CPU counts.
func compareResults(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare needs two result files")
		return 2
	}
	var rf [2]resultFile
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rf[i])
		}
		if err == nil && rf[i].Result == nil {
			err = errors.New("no result")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
	}
	if err := comparable(rf[0].Env, rf[1].Env); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(rf[0].Result.Metrics))
	for name := range rf[0].Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := rf[0].Result.Metrics[name]
		b, ok := rf[1].Result.Metrics[name]
		if !ok {
			continue
		}
		fmt.Printf("%-40s %14.6g → %14.6g %-8s ×%.4f\n", name, a.Value, b.Value, a.Unit, b.Value/a.Value)
	}
	return 0
}

// comparable refuses result pairs a ratio would mislead on.
func comparable(a, b envStamp) error {
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.NumCPU != b.NumCPU:
		return fmt.Errorf("nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.Workload != b.Workload:
		return fmt.Errorf("workload %s vs %s", a.Workload, b.Workload)
	case a.Trace != b.Trace:
		return errors.New("a traced and an untraced result")
	}
	return nil
}
