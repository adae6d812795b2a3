package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host, whose speed swings by
// up to 2× over phases of seconds to minutes as other tenants come and go,
// in two ways. The host takes the cores away for a while (the guest kernel
// counts that as steal time), and while the cores run, they run slower when
// a neighbour shares their caches and execution units. A phase can outlast a
// whole run, so no statistic taken within a run removes it.
//
// So every timed phase is cut into short rounds, and each round's durations
// are converted to reference time: how long the work would have taken on
// cores running at the reference speed with nothing stolen. The factor for
// a round is the product of two measurements:
//
//   - the run share: of the CPU time the guest's tasks wanted during the
//     round, the part the host gave them (1 − steal share, from /proc/stat);
//   - the speed index: between rounds, with the workload paused, a fixed
//     calibration kernel runs and its rate, in the CPU time of its own
//     thread (so steal does not count), is divided by a reference rate; the
//     round uses the mean of the indexes measured at its start and end.
//
// The kernel is the benchmark's own code, so a change to the program under
// test moves reference times as it moves raw ones; only the host's drift
// divides out. It pairs a floating-point product of 128×128 matrices with an
// integer sort and map updates, combined by geometric mean.
//
// The serving workloads keep every core busy, so their meter runs the
// kernel on every core at once, every servingRound. The optimizer runs one
// call at a time, so its meter runs the kernel inline on the optimizer's own
// goroutine, every optimizeRound, as close as possible to the work it
// calibrates. The kernel evicts the optimizer's working set, so the
// iteration after it runs from cold caches; optimizeRound keeps those to
// about one iteration in thirty, well clear of the p90 tail_ms reports.
const (
	servingRound  = 250 * time.Millisecond
	optimizeRound = 500 * time.Millisecond
)

// Reference rates of the calibration kernels, in calls per second per core:
// about their rates in a calm phase of a shared 2-core Intel Xeon VM at
// 2.0 GHz. They only fix the unit of reference time; an index above 1 means
// the host ran faster than that.
const (
	refMatMulPerSec = 450.0
	refSortPerSec   = 500.0
)

const (
	calN    = 128    // matrix side of the floating-point kernel
	calSort = 20_000 // ints sorted by the integer kernel
	calKeys = 4096   // distinct map keys the integer kernel updates
)

// calWorker holds one core's calibration buffers, allocated once, so a
// calibration allocates nothing and never waits on the collector.
type calWorker struct {
	a, b, c []float64
	xs      []int
	m       map[int]int
}

func newCalWorker() *calWorker {
	w := &calWorker{
		a: make([]float64, calN*calN), b: make([]float64, calN*calN), c: make([]float64, calN*calN),
		xs: make([]int, calSort), m: make(map[int]int, calKeys),
	}
	for i := range w.a {
		w.a[i] = float64(i%7) * 0.1
		w.b[i] = float64(i%5) * 0.2
	}
	for i := range w.xs {
		w.xs[i] = i * 7919
	}
	for k := 0; k < calKeys; k++ {
		w.m[k] = 0
	}
	return w
}

func (w *calWorker) matMul() {
	const n = calN
	for i := 0; i < n; i++ {
		for l := 0; l < n; l++ {
			x := w.a[i*n+l]
			row, out := w.b[l*n:l*n+n], w.c[i*n:i*n+n]
			for j := range out {
				out[j] += x * row[j]
			}
		}
	}
	for i := range w.c {
		w.c[i] *= 1e-3 // keeps the accumulator finite over any number of calls
	}
}

func (w *calWorker) sortAndCount() {
	for i := range w.xs {
		w.xs[i] = (w.xs[i]*1103515245 + 12345) & 0x7fffffff
	}
	slices.Sort(w.xs)
	for _, x := range w.xs[:2000] {
		w.m[x&(calKeys-1)]++
	}
}

// speed runs each kernel once (about 4 ms at the reference speed) and
// returns the geometric mean of their rates, in the calling thread's CPU
// time, over the reference rates. The caller must hold its OS thread.
func (w *calWorker) speed() float64 {
	t0 := threadCPU()
	w.matMul()
	t1 := threadCPU()
	w.sortAndCount()
	t2 := threadCPU()
	mm := 1 / (t1 - t0).Seconds() / refMatMulPerSec
	so := 1 / (t2 - t1).Seconds() / refSortPerSec
	return math.Sqrt(mm * so)
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU is the CPU time the calling thread has run, from the
// scheduler's nanosecond run-time count, so time the host stole is not in
// it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuTicks is the guest's CPU accounting summed over its CPUs, from the
// first line of /proc/stat: ticks its tasks ran and ticks the host stole
// while they wanted to run. An idle CPU accrues neither.
type cpuTicks struct{ run, steal uint64 }

// readTicks reads /proc/stat; where it cannot, it reports no ticks, and
// every run share is 1.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(string(f[i+1]), 10, 64)
	}
	return cpuTicks{run: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// runShare is the part of the wanted CPU time between a and b that the host
// gave: 1 when nothing was stolen or nothing ran.
func runShare(a, b cpuTicks) float64 {
	run, steal := float64(b.run-a.run), float64(b.steal-a.steal)
	if run+steal == 0 {
		return 1
	}
	return run / (run + steal)
}

// hostMeter measures the host speed index, either on every core at once or
// inline on the calling goroutine. The per-core workers are goroutines
// started once, so a measurement allocates nothing and adds no heap objects
// to the counts a traced run reports.
type hostMeter struct {
	round  time.Duration // the length of a round between measurements
	inline *calWorker    // set for an inline meter
	start  []chan struct{}
	done   chan float64
}

// newCoreMeter measures on every core at once, for rounds of round.
func newCoreMeter(round time.Duration) *hostMeter {
	m := &hostMeter{round: round, done: make(chan float64)}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		w, start := newCalWorker(), make(chan struct{})
		m.start = append(m.start, start)
		go func() {
			runtime.LockOSThread()
			for range start {
				m.done <- w.speed()
			}
		}()
	}
	m.measure() // warms the caches and the map
	return m
}

// newInlineMeter measures on the calling goroutine, for rounds of round.
func newInlineMeter(round time.Duration) *hostMeter {
	m := &hostMeter{round: round, inline: newCalWorker()}
	m.measure()
	return m
}

// measure returns the calibration speed, the mean over cores for a
// per-core meter.
func (m *hostMeter) measure() float64 {
	if m.inline != nil {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		return m.inline.speed()
	}
	for _, s := range m.start {
		s <- struct{}{}
	}
	sum := 0.0
	for range m.start {
		sum += <-m.done
	}
	return sum / float64(len(m.start))
}

// close stops the per-core workers.
func (m *hostMeter) close() {
	for _, s := range m.start {
		close(s)
	}
}

// refClock converts the durations measured in successive rounds to
// reference time. A round starts when the clock is made or at the previous
// endRound; endRound measures the index and returns the round's factor.
type refClock struct {
	meter *hostMeter
	h     float64   // index measured when the current round began
	begun time.Time // when it began
	ticks cpuTicks  // and the CPU accounting then
	index []float64 // every index measured, in order
	run   []float64 // every round's run share, in order
}

func newRefClock(m *hostMeter) *refClock {
	h := m.measure()
	return &refClock{meter: m, h: h, begun: time.Now(), ticks: readTicks(), index: []float64{h}}
}

// due reports whether the current round has lasted the meter's round.
func (c *refClock) due() bool { return time.Since(c.begun) >= c.meter.round }

// endRound measures the index and returns the factor that turns the ending
// round's durations into reference time: its run share times the mean of
// the indexes measured at its start and its end.
func (c *refClock) endRound() float64 {
	share := runShare(c.ticks, readTicks())
	h := c.meter.measure()
	f := share * (c.h + h) / 2
	c.h, c.begun, c.ticks = h, time.Now(), readTicks()
	c.index = append(c.index, h)
	c.run = append(c.run, share)
	return f
}

// setupCals is how many measurements timedRef averages at each end of the
// call it times: a set-up runs for seconds with no pause to measure in, so
// its factor rests on these alone.
const setupCals = 5

// timedRef runs fn once and returns its duration in reference time.
func timedRef(m *hostMeter, fn func() error) (time.Duration, error) {
	meanIndex := func() float64 {
		sum := 0.0
		for i := 0; i < setupCals; i++ {
			sum += m.measure()
		}
		return sum / setupCals
	}
	h := meanIndex()
	t0, ticks := time.Now(), readTicks()
	err := fn()
	d, share := time.Since(t0), runShare(ticks, readTicks())
	return scale(d, share*(h+meanIndex())/2), err
}

// servingRounds is how many rounds a serving phase of seconds runs.
func servingRounds(seconds float64) int {
	return max(1, int(math.Ceil(seconds/servingRound.Seconds()-1e-9)))
}

func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
