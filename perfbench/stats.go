package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// samples are latencies in microseconds.
type samples []float64

// quantile is the nearest-rank q-quantile.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// window is what the clients measured between warm-up end and the
// deadline. Operations that failed count as attempted, not ok, and their
// latency sample is the whole window, so they miss every latency limit.
type window struct {
	from      time.Time
	length    time.Duration
	ok        int64
	attempted int64
	failed    int64
	reads     samples
	writes    samples
	spans     spanLog
}

func newWindow(from, end time.Time, traced bool) window {
	return window{from: from, length: end.Sub(from), spans: spanLog{on: traced}}
}

func (w *window) opsPerSec() float64 { return float64(w.ok) / w.length.Seconds() }

// add folds one client's window into w.
func (w *window) add(c *window) {
	w.ok += c.ok
	w.attempted += c.attempted
	w.failed += c.failed
	w.reads = append(w.reads, c.reads...)
	w.writes = append(w.writes, c.writes...)
	w.spans.merge(&c.spans)
}

// record accounts one operation that ran from start to end; operations
// that started during warm-up are not timed.
func (w *window) record(write, failed bool, start, end time.Time) {
	if start.Before(w.from) {
		return
	}
	w.attempted++
	us := float64(end.Sub(start).Nanoseconds()) / 1e3
	if failed {
		w.failed++
		us = float64(w.length.Microseconds())
	} else {
		w.ok++
	}
	if write {
		w.writes = append(w.writes, us)
	} else {
		w.reads = append(w.reads, us)
	}
}

// Span names, recorded by the benchmark around its own calls into each
// layer; nothing inside the program is instrumented.
const (
	spBatch = iota // kv: one pipelined batch, flush to last reply
	spGet          // kv per-verb spans, spGet to spMSet: command flush to its reply
	spMGet
	spSet
	spSetEX
	spSetPX
	spHSet
	spMSet
	spLibWrite // lib-tx: Lease, Atomic and Release
	spLibRead  // lib-tx: one View
	spLease    // ThreadPool.Lease
	spAtomic   // Thread.Atomic
	spRelease  // ThreadPool.Release
	spPut      // pds Map.Put inside Atomic
	spGetLib   // pds Map.Get inside View
	numSpans
)

var spanNames = [numSpans]string{
	spBatch: "client.batch", spGet: "kvserve.get", spMGet: "kvserve.mget",
	spSet: "kvserve.set", spSetEX: "kvserve.set_ex", spSetPX: "kvserve.set_px",
	spHSet: "kvserve.hset", spMSet: "kvserve.mset",
	spLibWrite: "lib.write", spLibRead: "lib.read",
	spLease: "mtm.lease", spAtomic: "mtm.atomic", spRelease: "mtm.release",
	spPut: "pds.put", spGetLib: "pds.get",
}

// span is one timed call. Spans of one operation share req; parent is
// the index+1 of the enclosing span in the same client's log (0 = root).
type span struct {
	name       uint8
	req        uint64
	parent     int32
	start, end int64 // ns since spanEpoch
}

var spanEpoch = time.Now()

func sinceEpoch(t time.Time) int64 { return t.Sub(spanEpoch).Nanoseconds() }

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	on   bool
	recs []span
}

// add appends a span and returns its parent handle for children.
func (l *spanLog) add(name uint8, req uint64, parent int32, start, end time.Time) int32 {
	if !l.on {
		return 0
	}
	l.recs = append(l.recs, span{name: name, req: req, parent: parent, start: sinceEpoch(start), end: sinceEpoch(end)})
	return int32(len(l.recs))
}

// merge appends another log's spans, keeping their parent links.
func (l *spanLog) merge(o *spanLog) {
	off := int32(len(l.recs))
	for _, r := range o.recs {
		if r.parent > 0 {
			r.parent += off
		}
		l.recs = append(l.recs, r)
	}
}

// finish sets the end of a span added before its children.
func (l *spanLog) finish(h int32, end time.Time) {
	if h > 0 {
		l.recs[h-1].end = sinceEpoch(end)
	}
}

// meanUS is the mean duration of spans named name, in microseconds.
func (l *spanLog) meanUS(name uint8) float64 {
	var sum, n float64
	for i := range l.recs {
		if l.recs[i].name == name {
			sum += float64(l.recs[i].end - l.recs[i].start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n / 1e3
}

// maxSpansWritten caps the span file; the aggregates use every span.
const maxSpansWritten = 200000

// write dumps the spans as JSON lines. Parent handles are per client, so
// they are rewritten as global line numbers (1-based, 0 = root).
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := len(l.recs)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	type out struct {
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Req    uint64 `json:"req"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for i := 0; i < n; i++ {
		r := l.recs[i]
		if err := enc.Encode(out{ID: i + 1, Parent: r.parent, Req: r.req, Name: spanNames[r.name], Start: r.start, End: r.end}); err != nil {
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

// summarize prints, per span name, the count, mean and self time: the
// duration minus the part of it that the span's children cover.
func (l *spanLog) summarize(w io.Writer) {
	var count [numSpans]int64
	var total, covered [numSpans]float64
	kids := map[int32][][2]int64{}
	for i := range l.recs {
		r := &l.recs[i]
		count[r.name]++
		total[r.name] += float64(r.end - r.start)
		if r.parent > 0 {
			kids[r.parent] = append(kids[r.parent], [2]int64{r.start, r.end})
		}
	}
	for p, iv := range kids {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var cov, hi int64 = 0, math.MinInt64
		for _, x := range iv {
			if x[0] > hi {
				cov += x[1] - x[0]
				hi = x[1]
			} else if x[1] > hi {
				cov += x[1] - hi
				hi = x[1]
			}
		}
		covered[l.recs[p-1].name] += float64(cov)
	}
	fmt.Fprintf(w, "perfbench: %-16s %9s %11s %11s\n", "span", "count", "mean_us", "self_us")
	for n := 0; n < numSpans; n++ {
		if count[n] == 0 {
			continue
		}
		c := float64(count[n])
		fmt.Fprintf(w, "perfbench: %-16s %9d %11.2f %11.2f\n", spanNames[n], count[n], total[n]/c/1e3, (total[n]-covered[n])/c/1e3)
	}
}
