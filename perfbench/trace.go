package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"colocmodel/internal/fleetobs"
	"colocmodel/internal/obs"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace (the request's X-Request-ID); Parent names the span that
// caused this one within the same trace ("" for a root).
type span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Path is the request path on a tier's span and "kind@backend" on
	// the client's span.
	Path string `json:"path,omitempty"`
}

// recorder keeps spans in memory for the length of a traced run; they
// are written out once the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(sp span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// byTrace groups the recorded spans by request.
func (r *recorder) byTrace() map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]span, len(r.spans)/3)
	for _, sp := range r.spans {
		out[sp.Trace] = append(out[sp.Trace], sp)
	}
	return out
}

func (r *recorder) at(t time.Time) float64 { return us(t.Sub(r.epoch)) }

// tap is the timing middleware slot in front of a tier's handler. It
// costs one atomic load until a traced segment attaches a recorder; then
// it records one span per traced request (one carrying X-Request-ID),
// named after the tier, whose parent is the caller ("client" for the
// first tier, "router" behind it).
type tap struct {
	name, parent string
	h            http.Handler
	rec          atomic.Pointer[recorder]
}

func (t *tap) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r := t.rec.Load()
	if r == nil || req.Header.Get("X-Request-ID") == "" {
		t.h.ServeHTTP(w, req)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, req)
	r.add(span{Trace: req.Header.Get("X-Request-ID"), Name: t.name, Parent: t.parent,
		StartUS: r.at(t0), DurUS: us(time.Since(t0)), Path: req.URL.Path})
}

// sampledTraceparent is a W3C trace context with the sampled flag set.
// Sent on traced requests, it makes the serve tier encode before writing
// headers, so its Server-Timing header carries the encode stage too.
func sampledTraceparent(n uint64) string {
	tc := obs.TraceContext{Sampled: true}
	binary.BigEndian.PutUint64(tc.TraceID[8:], n+1)
	tc.SpanID[7] = 0xa1
	return tc.Header()
}

// writeSpans writes the spans as gzipped JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape is one /metrics document per tier.
type scrape []*fleetobs.Doc

// sum adds every sample of a family's line (any labels) over the tiers.
// A family no tier exposes is an error, so a renamed series cannot read
// as zero.
func (s scrape) sum(family, line string) (float64, error) {
	total, found := 0.0, 0
	for _, d := range s {
		t, n := d.SumSamples(family, line)
		total, found = total+t, found+n
	}
	if found == 0 {
		return 0, fmt.Errorf("/metrics has no %s series %q", family, line)
	}
	return total, nil
}

// deltas returns after-before for each (family, line) pair, in order.
func deltas(before, after scrape, series ...[2]string) ([]float64, error) {
	out := make([]float64, len(series))
	for i, s := range series {
		b, err := before.sum(s[0], s[1])
		if err != nil {
			return nil, err
		}
		a, err := after.sum(s[0], s[1])
		if err != nil {
			return nil, err
		}
		out[i] = a - b
	}
	return out, nil
}
