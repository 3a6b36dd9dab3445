package main

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"charles/internal/vfs"
)

// span is one timed call into a layer. Spans of one timed op share its op
// index; set-up spans carry op -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at the top
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory for one traced replay; they are written
// out only after the replay ends. The replay is serial, so the enclosing
// span is the top of one stack. With on unset every call is a no-op
// apart from the op clock, which is how the overhead run measures the
// same replay without recording.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	stack []int32
	op    int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index (-1 when recording is off).
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	idx := int32(len(t.spans) - 1)
	t.stack = append(t.stack, idx)
	return idx
}

// end closes span idx.
func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == idx {
		t.stack = t.stack[:n-1]
	}
}

// rename renames span idx: a cache lookup learns whether it hit only after
// the call.
func (t *tracer) rename(idx int32, name string) {
	if idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].Name = name
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	idx := t.begin(name)
	err := f()
	t.end(idx)
	return err
}

// setOp marks the spans that follow as belonging to timed op i (-1 for
// set-up).
func (t *tracer) setOp(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op = int32(i)
}

// selfTimes returns every span's self time: its duration minus its
// children's. The tracer is one serial stack, so children never overlap
// each other or outlast their parent.
func selfTimes(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] += s.End - s.Start
		if s.Parent >= 0 {
			out[s.Parent] -= s.End - s.Start
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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

// layerTimes sums self time per span name for each timed op and for each
// set-up span.
type layerTimes struct {
	perOp []map[string]int64 // op index → name → self ns
	setup map[string][]int64 // name → self ns of each set-up span
}

func aggregate(spans []span, nops int) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{perOp: make([]map[string]int64, nops), setup: map[string][]int64{}}
	for i, s := range spans {
		if s.Op < 0 {
			lt.setup[s.Name] = append(lt.setup[s.Name], self[i])
			continue
		}
		if lt.perOp[s.Op] == nil {
			lt.perOp[s.Op] = map[string]int64{}
		}
		lt.perOp[s.Op][s.Name] += self[i]
	}
	return lt
}

// layerMS is the per-layer time of the spans match selects: the median,
// over the timed ops that contain such a span, of the op's summed self
// time; when no timed op does, the median over the set-up's spans.
func (lt layerTimes) layerMS(match func(string) bool) float64 {
	var vals []float64
	for _, m := range lt.perOp {
		var sum int64
		hit := false
		for name, ns := range m {
			if match(name) {
				sum += ns
				hit = true
			}
		}
		if hit {
			vals = append(vals, float64(sum)/1e6)
		}
	}
	if len(vals) == 0 {
		for name, list := range lt.setup {
			if match(name) {
				for _, ns := range list {
					vals = append(vals, float64(ns)/1e6)
				}
			}
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return percentile(vals, 50)
}

// shares returns each span name's share of the summed op time over the ops
// keep selects.
func (lt layerTimes) shares(keep func(op int) bool) map[string]float64 {
	sums := map[string]int64{}
	var total int64
	for op, m := range lt.perOp {
		if !keep(op) {
			continue
		}
		for name, ns := range m {
			sums[name] += ns
			total += ns
		}
	}
	out := map[string]float64{}
	for name, ns := range sums {
		out[name] = ratio(float64(ns), float64(total))
	}
	return out
}

func named(names ...string) func(string) bool {
	return func(n string) bool {
		for _, want := range names {
			if n == want {
				return true
			}
		}
		return false
	}
}

func prefixed(p string) func(string) bool {
	return func(n string) bool { return strings.HasPrefix(n, p) }
}

// countingFS is the vfs.FS the traced replay opens its store with: the
// real filesystem, with every operation counted and recorded as a span
// under the store call that made it.
type countingFS struct {
	tr           *tracer
	syncs        atomic.Int64 // file and directory fsyncs
	reads        atomic.Int64 // whole-file reads
	bytesWritten atomic.Int64
}

var _ vfs.FS = (*countingFS)(nil)

func (c *countingFS) MkdirAll(path string) error { return vfs.OS{}.MkdirAll(path) }

func (c *countingFS) ReadFile(path string) (data []byte, err error) {
	c.reads.Add(1)
	err = c.tr.do("vfs.read", func() (err error) {
		data, err = vfs.OS{}.ReadFile(path)
		return err
	})
	return data, err
}

func (c *countingFS) Create(path string) (f vfs.File, err error) {
	err = c.tr.do("vfs.create", func() (err error) {
		f, err = vfs.OS{}.Create(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldPath, newPath string) error {
	return c.tr.do("vfs.rename", func() error { return vfs.OS{}.Rename(oldPath, newPath) })
}

func (c *countingFS) Remove(path string) error { return vfs.OS{}.Remove(path) }

func (c *countingFS) Stat(path string) (fs.FileInfo, error) { return vfs.OS{}.Stat(path) }

func (c *countingFS) ReadDir(path string) ([]fs.DirEntry, error) { return vfs.OS{}.ReadDir(path) }

func (c *countingFS) SyncDir(path string) error {
	c.syncs.Add(1)
	return c.tr.do("vfs.sync", func() error { return vfs.OS{}.SyncDir(path) })
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (n int, err error) {
	err = f.fs.tr.do("vfs.write", func() (err error) {
		n, err = f.File.Write(p)
		return err
	})
	f.fs.bytesWritten.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.fs.tr.do("vfs.sync", f.File.Sync)
}
