package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the repository.
type span struct {
	Name   string `json:"name"`   // the public call, e.g. "simsync.RunLockIn"
	Layer  string `json:"layer"`  // the package the call enters
	Start  int64  `json:"start"`  // ns since the tracer started
	End    int64  `json:"end"`    // ns since the tracer started
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int64  `json:"req"`    // request id shared by the spans of one request
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(layer, name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, Parent: parent, Req: req})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// layerTime is one layer's share of the traced run.
type layerTime struct {
	Layer string
	Spans int
	Self  time.Duration // span time not covered by child spans
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of its interval its children cover. Children of one span never
// overlap each other here (each parent issues its calls in sequence, or
// is a root whose concurrent children are merged as intervals).
func (t *tracer) selfTimes() []layerTime {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byLayer := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := byLayer[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			byLayer[s.Layer] = lt
		}
		lt.Spans++
		lt.Self += time.Duration(s.End-s.Start) - covered(t.spans, children[i])
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length of the union of the children's intervals.
func covered(spans []span, kids []int) time.Duration {
	iv := make([][2]int64, len(kids))
	for k, i := range kids {
		iv[k] = [2]int64{spans[i].Start, spans[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	for k, v := range iv {
		if k == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	total += curE - curS
	return time.Duration(total)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints each layer's span count and self time.
func (t *tracer) report(w io.Writer) {
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "layer %-10s spans %8d  self %10.3f ms\n", lt.Layer, lt.Spans, float64(lt.Self)/1e6)
	}
}
