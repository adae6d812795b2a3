package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader is the trace id every tier of the stack propagates
// (client → router → shard); spans of one request share it.
const requestIDHeader = "Ldp-Request-Id"

// Span is one timed call at a layer boundary. Peer names the shard a
// fleet→shard hop went to (or the shard that served it), "" elsewhere.
// Parent is filled in by link after the run; spans are recorded flat.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	ReqID  string `json:"req"`
	Peer   string `json:"peer,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while it is on; the run writes them out
// once it ends. Off, every record call is one atomic load.
type recorder struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) record(name, reqID, peer string, start, end time.Time) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{
		ID: len(r.spans), Parent: -1, Name: name, ReqID: reqID, Peer: peer,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)),
	})
	r.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (r *recorder) take() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// tracedHandler wraps a tier's handler, recording one span per request named
// prefix + "." + the route's last path element ("router.reports",
// "shard.snapshot"). The span covers the handler until it returns, which for
// streamed responses includes writing the body.
func tracedHandler(r *recorder, prefix, peer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		r.record(prefix+"."+routeName(req.URL.Path), req.Header.Get(requestIDHeader), peer, start, time.Now())
	})
}

// tracedTransport times the router's calls to its shards: "fleet.forward"
// for a POST /reports, "fleet.snapshot" for a GET /snapshot. The span ends
// when the response headers arrive, or for a snapshot once its body has
// been read and closed.
type tracedTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	name := "fleet." + routeName(req.URL.Path)
	if name == "fleet.reports" {
		name = "fleet.forward"
	}
	id, peer := req.Header.Get(requestIDHeader), req.URL.Host
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || name != "fleet.snapshot" {
		t.rec.record(name, id, peer, start, time.Now())
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.rec.record(name, id, peer, start, time.Now()) }}
	return resp, nil
}

// spanBody ends a span when the caller closes the response body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func routeName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// tierOf orders the layers a request crosses; a span's parent is the
// innermost span of the next-outer tier, in the same request, whose
// interval contains it.
var tierOf = map[string]int{
	"client": 0, "router": 1, "fleet": 2, "shard": 3,
}

func tier(name string) int {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			if t, ok := tierOf[name[:i]]; ok {
				return t
			}
			break
		}
	}
	return -1
}

// link fills in every span's Parent. Spans are grouped by request id; a
// span's parent is the span one tier out that contains it in time, and for
// a shard span also went to the same peer (a query fans out to every shard
// under one id). Spans without an id or an enclosing span stay roots.
func link(spans []Span) {
	byReq := map[string][]int{}
	for i := range spans {
		spans[i].Parent = -1
		if spans[i].ReqID != "" {
			byReq[spans[i].ReqID] = append(byReq[spans[i].ReqID], i)
		}
	}
	for _, idx := range byReq {
		for _, c := range idx {
			ct := tier(spans[c].Name)
			best := -1
			for _, p := range idx {
				s, ps := spans[c], spans[p]
				if tier(ps.Name) != ct-1 || ps.Start > s.Start || ps.End < s.End {
					continue
				}
				if ct == tierOf["shard"] && ps.Peer != s.Peer {
					continue
				}
				if best < 0 || spans[best].dur() > ps.dur() {
					best = p
				}
			}
			if best >= 0 {
				spans[c].Parent = spans[best].ID
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (a parallel
// fan-out) are counted once, by merging their intervals first.
func selfTimes(spans []Span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
