package main

// Spans recorded by the benchmark around its own calls into each layer.
// They are kept in memory and written when the traced run ends; nothing
// inside the program under test is instrumented (a later issue).

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceSample is the sampling period of the traced run: 1 request in 16.
const traceSample = 16

// span is one line of trace-<workload>.jsonl. Req is the request's sequence
// number within its worker (batch or pipeline number); every span of one
// request shares it. Parent 0 means a root span.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Worker int    `json:"worker"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBuf is one goroutine's span log. IDs are worker<<24 | n, so workers
// never contend on a counter.
type spanBuf struct {
	epoch  time.Time
	worker int
	n      uint32
	spans  []span
}

func newSpanBuf(epoch time.Time, worker int) *spanBuf {
	return &spanBuf{epoch: epoch, worker: worker}
}

// add records a finished span and returns its id. A nil buffer records
// nothing, so untraced paths can call it unconditionally.
func (b *spanBuf) add(parent uint32, req int64, name string, start, end time.Time) uint32 {
	id := b.reserve()
	b.put(id, parent, req, name, start, end)
	return id
}

// reserve hands out an id for a parent whose end is not known yet; the
// caller passes it to put once the span is finished.
func (b *spanBuf) reserve() uint32 {
	if b == nil {
		return 0
	}
	b.n++
	return uint32(b.worker+1)<<24 | b.n
}

func (b *spanBuf) put(id, parent uint32, req int64, name string, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Worker: b.worker, Req: req, Name: name,
		Start: int64(start.Sub(b.epoch)), End: int64(end.Sub(b.epoch)),
	})
}

// beginReplay opens the "replay" root span of a traced run's layer replays:
// the replays add their spans to rp under root, and done closes the root.
func beginReplay(epoch time.Time, worker int) (rp *spanBuf, root uint32, done func()) {
	rp = newSpanBuf(epoch, worker)
	root, t0 := rp.reserve(), time.Now()
	return rp, root, func() { rp.put(root, 0, 0, "replay", t0, time.Now()) }
}

// spanTotals is the per-name roll-up of a trace: how often the span ran, its
// total duration, and its self time — duration minus the part its child
// spans cover.
type spanTotals struct {
	Count       int
	Total, Self time.Duration
}

func summarize(spans []span) map[string]*spanTotals {
	covered := make(map[uint32]int64, len(spans))
	byID := make(map[uint32]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if p, ok := byID[s.Parent]; ok {
			covered[p.ID] += min(s.End, p.End) - max(s.Start, p.Start)
		}
	}
	out := map[string]*spanTotals{}
	for i := range spans {
		s := &spans[i]
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.Total += time.Duration(s.End - s.Start)
		t.Self += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return out
}

func mergeSpans(bufs ...*spanBuf) []span {
	var all []span
	for _, b := range bufs {
		if b != nil {
			all = append(all, b.spans...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
