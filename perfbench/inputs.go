package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	ldp "repro"
	"repro/internal/transport"
)

// Input generation is kept apart from the system under test: everything the
// stack receives — report frames, idempotency keys, query sequences — is
// built here from the seed before timing starts, and the timed loops only
// index into it.

// frameSet is a pool of distinct pre-randomized report frames, encoded once.
// The timed loops cycle through it with fresh keys, so device-side
// randomization and client-side encoding are not charged to the server.
type frameSet struct {
	reports [][]ldp.Report
	bodies  [][]byte
}

// newFrameSet randomizes distinct frames of size reports each. User types
// follow a seeded skewed distribution (a random histogram raised to the
// third power), so the accumulator is not uniform.
func newFrameSet(rng *rand.Rand, r ldp.Randomizer, distinct, size int) (*frameSet, error) {
	n := r.Domain()
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		u := rng.Float64()
		total += u * u * u
		cdf[i] = total
	}
	fs := &frameSet{}
	for f := 0; f < distinct; f++ {
		reports := make([]ldp.Report, size)
		for i := range reports {
			x := rng.Float64() * total
			u := 0
			for u < n-1 && cdf[u] < x {
				u++
			}
			rep, err := r.Randomize(u, rng)
			if err != nil {
				return nil, err
			}
			reports[i] = rep
		}
		var buf bytes.Buffer
		if err := ldp.EncodeReportsFrame(&buf, reports); err != nil {
			return nil, err
		}
		fs.reports = append(fs.reports, reports)
		fs.bodies = append(fs.bodies, buf.Bytes())
	}
	return fs, nil
}

// newKeys returns count idempotency keys: a seeded prefix naming the stream
// plus a sequence number, unique within and across streams.
func newKeys(rng *rand.Rand, stream string, count int) []string {
	prefix := fmt.Sprintf("%016x-%s-", rng.Uint64(), stream)
	keys := make([]string, count)
	for i := range keys {
		keys[i] = prefix + strconv.Itoa(i)
	}
	return keys
}

// Query modes: a third of the analysts' requests ask for answers only, a
// third add variances, a third add 95% confidence intervals.
const (
	modeAnswers = iota
	modeVariance
	modeCI
	numModes
)

var modeNames = [numModes]string{"answers", "variance", "ci"}

// queryLevel is the confidence level of modeCI requests.
const queryLevel = 0.95

// querySpec is one analyst request: a paper workload and a mode.
type querySpec struct {
	workload int // index into ldp.PaperWorkloads
	mode     int
}

func (q querySpec) request(n int) transport.QueryRequest {
	req := transport.QueryRequest{Workload: ldp.PaperWorkloads[q.workload], Domain: n}
	switch q.mode {
	case modeVariance:
		req.WantVariance = true
	case modeCI:
		req.WantCI, req.Level = true, queryLevel
	}
	return req
}

// newQuerySequence returns count (workload, mode) pairs in blocks of 18:
// each block holds every pair once, in a seeded order. The mix is then
// exact at any length, so a run's cost does not depend on how many heavy
// queries its seed happened to draw.
func newQuerySequence(rng *rand.Rand, count int) []querySpec {
	block := make([]querySpec, 0, len(ldp.PaperWorkloads)*numModes)
	for w := range ldp.PaperWorkloads {
		for m := 0; m < numModes; m++ {
			block = append(block, querySpec{workload: w, mode: m})
		}
	}
	seq := make([]querySpec, 0, count+len(block))
	for len(seq) < count {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block...)
	}
	return seq[:count]
}

// queryBodies pre-encodes the request frame of every (workload, mode) pair,
// indexed workload*numModes+mode.
func queryBodies(n int) ([][]byte, error) {
	var out [][]byte
	for w := range ldp.PaperWorkloads {
		for m := 0; m < numModes; m++ {
			var buf bytes.Buffer
			if err := transport.EncodeQueryFrame(&buf, querySpec{w, m}.request(n)); err != nil {
				return nil, err
			}
			out = append(out, buf.Bytes())
		}
	}
	return out, nil
}

// servingInputs is everything the ingest and query workloads send.
type servingInputs struct {
	frames      *frameSet // 256-report frames: ingest senders and the pre-fill
	frameKeys   []string
	deviceFrame *frameSet // 16-report frames: the query workload's device stream
	deviceKeys  []string
	queries     []querySpec
}

// Stream sizes. The ingest key pool allows 25,000 frames/s (6.4 M reports/s,
// well above what two cores sustain); a run that exhausts it fails rather
// than reuse a key.
const (
	ingestFrameSize    = 256
	ingestDistinct     = 64
	ingestKeysPerSec   = 25000
	deviceFrameSize    = 16
	deviceDistinct     = 256
	deviceRate         = 200 // frames per second
	prefillReports     = 1_000_000
	queriesPerSecLimit = 20000
)

// prefillFrames is how many 256-report frames the query workload's
// pre-fill posts: 1,000,192 reports.
const prefillFrames = (prefillReports + ingestFrameSize - 1) / ingestFrameSize

// newServingInputs builds the inputs of a serving workload measuring for
// seconds: for ingest, keys for the closed-loop senders; for query, keys for
// the pre-fill (which reuses the 256-report frames) and the device stream,
// and the analysts' query sequence.
func newServingInputs(seed int64, r ldp.Randomizer, seconds float64, query bool) (*servingInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &servingInputs{}
	var err error
	if in.frames, err = newFrameSet(rng, r, ingestDistinct, ingestFrameSize); err != nil {
		return nil, err
	}
	if in.deviceFrame, err = newFrameSet(rng, r, deviceDistinct, deviceFrameSize); err != nil {
		return nil, err
	}
	if !query {
		in.frameKeys = newKeys(rng, "frame", int(seconds*ingestKeysPerSec))
		return in, nil
	}
	in.frameKeys = newKeys(rng, "frame", prefillFrames)
	// The device stream restarts its schedule every round.
	perRound := int(servingRound.Seconds()*deviceRate) + 1
	in.deviceKeys = newKeys(rng, "device", servingRounds(seconds)*perRound)
	in.queries = newQuerySequence(rng, int(seconds*queriesPerSecLimit))
	return in, nil
}

// digest hashes every generated byte — frames, keys, query sequence — so a
// self-test can show the same seed yields identical inputs and another seed
// does not.
func (in *servingInputs) digest() [32]byte {
	h := sha256.New()
	for _, fs := range []*frameSet{in.frames, in.deviceFrame} {
		for _, b := range fs.bodies {
			h.Write(b)
		}
	}
	for _, keys := range [][]string{in.frameKeys, in.deviceKeys} {
		for _, k := range keys {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
	}
	for _, q := range in.queries {
		h.Write(binary.AppendUvarint(nil, uint64(q.workload*numModes+q.mode)))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
