// Command perfbench is the repository benchmark. One process runs one
// workload against the Mnemosyne stack in-process, checks every reply
// against a model of what the clients wrote, crashes the emulated device
// and checks that every acknowledged write survived, and prints one JSON
// result line as the last line of standard output.
//
//	perfbench -work DIR --workload kv-write|kv-read|lib-tx --seed N --seconds S --trace 0|1
//
// The measured time S is split over trials; each trial sets up a fresh
// stack, measures, crashes and reattaches it, and checks it. A metric is
// the median over trials. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 every other trial is traced and the
// result carries the per-layer metrics and the tracing overhead. NOTES.md
// describes the workloads, the metrics and the known gaps.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

// Run shape. It is the same on every run: a later change compares like
// with like only if it never moves.
const (
	trials        = 10                     // the measured time is split over these
	warmup        = 500 * time.Millisecond // served and checked, not timed
	restartCycles = 2                      // crash-reattach cycles per trial
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: kv-write, kv-read or lib-tx")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same requests")
	flag.IntVar(&o.seconds, "seconds", 30, "measured time, split over the trials")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced trials")
	flag.StringVar(&o.work, "work", "", "directory for per-run state and span output")
	flag.Parse()
	o.trace = trace == 1
	if o.work == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -work, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one workload's stack and clients for one trial.
type bench interface {
	// setup opens a fresh stack, serves it and preloads it.
	setup() error
	// pm is the live instance, for layer snapshots.
	pm() *core.PM
	// drive runs the closed-loop clients until end, timing only the
	// operations that start after from; traced clients record spans.
	drive(from, end time.Time, traced bool) error
	// results returns the clients' window statistics.
	results() *window
	// restart drains the clients' server, crashes the device with every
	// unflushed line dropped, and reattaches the stack.
	restart() (attach, open time.Duration, err error)
	// verify reads back every acknowledged write through the reattached
	// stack.
	verify() error
	// tamper points every client at chk and corrupts one model entry;
	// restore undoes both.
	tamper(chk *checker) (restore func())
	// space returns heap bytes in use and live user bytes; the stack
	// must be quiesced.
	space() (heap, live int64)
	// close tears the stack down and removes its files.
	close()
}

var workloads = map[string]func(seed int64, traced bool, dir string, chk *checker) bench{
	"kv-write": newKVWrite,
	"kv-read":  newKVRead,
	"lib-tx":   newLibTx,
}

// config is the stack configuration of every workload: kvserved's
// defaults with the paper's emulated PCM (150 ns writes, 4 GB/s) spun in
// real time. A traced trial samples every commit latency, as kvserved
// does with attribution on.
func config(dir string, traced bool) core.Config {
	cfg := core.Config{Dir: dir, EmulateLatency: true}
	if traced {
		cfg.LatencySampleRate = 1
	}
	return cfg
}

// trial is what one setup-drive-crash-verify cycle measured.
type trial struct {
	setup    time.Duration
	win      *window
	attach   []float64 // seconds per crash cycle: core.Attach
	open     []float64 // and reopening the server or map
	replayed int
	heap     int64
	live     int64
	layers   map[string]float64
	rss      float64 // MB, peak resident set after setup; first trial only
}

func runTrial(o options, chk *checker, traced bool, i int) (*trial, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("run-%d-%d", os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := workloads[o.workload](o.seed*1000+int64(i), traced, dir, chk)
	defer func() {
		b.close()
		// Return the trial's device memory before the next trial
		// allocates its own, so every trial starts from the same heap.
		runtime.GC()
		debug.FreeOSMemory()
	}()
	t := &trial{}
	t0 := time.Now()
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t.setup = time.Since(t0)
	if i == 0 {
		// The peak of opening and loading one stack. The serving window
		// is left out: its peak adds however much garbage the Go heap
		// holds when the window ends, which depends on where the GC
		// cycle stands and moved the figure by a fifth between runs.
		t.rss = peakRSSMB()
	}

	from := time.Now().Add(warmup)
	end := from.Add(time.Duration(o.seconds) * time.Second / trials)
	// A traced trial snapshots the layers when the warm-up ends, so the
	// counters cover the same operations as the clients' window.
	var before snapshot
	snapped := make(chan struct{})
	if traced {
		// The program's own phase attribution, on by default in kvserved.
		telemetry.EnableAttribution()
		go func() {
			time.Sleep(time.Until(from))
			before = takeSnapshot(b.pm())
			close(snapped)
		}()
	} else {
		close(snapped)
	}
	err := b.drive(from, end, traced)
	<-snapped
	if err != nil {
		return nil, fmt.Errorf("drive: %w", err)
	}
	// A copy: the trial outlives the bench, and a pointer into it would
	// keep the bench's torn-down stack (its whole device) reachable.
	win := *b.results()
	t.win = &win
	if traced {
		t.layers = layerMetrics(before, takeSnapshot(b.pm()), t.win)
		telemetry.DisableAttribution()
	}

	// Crash and reattach several times, then read everything back: every
	// acknowledged write must survive every crash.
	for c := 0; c < restartCycles; c++ {
		// Start every reattach from a settled heap with its free memory
		// returned to the OS, as a freshly started process would;
		// otherwise the cost of Attach's allocations depends on what
		// earlier trials left behind.
		runtime.GC()
		debug.FreeOSMemory()
		attach, open, err := b.restart()
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", c, err)
		}
		t.attach = append(t.attach, attach.Seconds())
		t.open = append(t.open, open.Seconds())
		if c == 0 {
			t.replayed = b.pm().TM().Recovery().Replayed
		}
	}
	if err := b.verify(); err != nil {
		return nil, fmt.Errorf("verify after restart: %w", err)
	}
	if i == 0 {
		// Harness self-test of the recovery check: with one model entry
		// corrupted, the same verification must fail.
		scratch := &checker{}
		restore := b.tamper(scratch)
		err := b.verify()
		restore()
		if err == nil && scratch.ok() {
			return nil, errors.New("harness self-test: verification accepted a corrupted recovered value")
		}
	}
	t.heap, t.live = b.space()
	return t, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	if err := selfTest(); err != nil {
		return nil, err
	}
	chk := &checker{}
	var plain, traced []*trial
	for i := 0; i < trials; i++ {
		tr := o.trace && i%2 == 1
		t, err := runTrial(o, chk, tr, i)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		if tr {
			traced = append(traced, t)
		} else {
			plain = append(plain, t)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	over := func(ts []*trial, f func(t *trial) float64) float64 {
		v := make([]float64, len(ts))
		for i, t := range ts {
			v[i] = f(t)
		}
		return median(v)
	}
	all := func(ts []*trial, f func(t *trial) []float64) float64 {
		var v []float64
		for _, t := range ts {
			v = append(v, f(t)...)
		}
		return median(v)
	}
	counted := plain
	if !o.trace {
		put("ops_s", "1/s", over(plain, func(t *trial) float64 { return t.win.opsPerSec() }))
		put("read_p50_us", "us", over(plain, func(t *trial) float64 { return t.win.reads.quantile(0.50) }))
		put("read_p99_us", "us", over(plain, func(t *trial) float64 { return t.win.reads.quantile(0.99) }))
		put("write_p50_us", "us", over(plain, func(t *trial) float64 { return t.win.writes.quantile(0.50) }))
		put("write_p99_us", "us", over(plain, func(t *trial) float64 { return t.win.writes.quantile(0.99) }))
		put("setup_s", "s", over(plain, func(t *trial) float64 { return t.setup.Seconds() }))
		put("restart_s", "s", all(plain, restarts))
		put("space_amp", "ratio", over(plain, func(t *trial) float64 { return float64(t.heap) / float64(t.live) }))
		put("rss_mb", "MB", plain[0].rss)
		for i, t := range plain {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trial %d: %.0f ops/s, reads n=%d p99 %.0f us, writes n=%d p99 %.0f us, setup %.3fs, restarts %v\n",
				o.workload, o.seed, i, t.win.opsPerSec(), len(t.win.reads), t.win.reads.quantile(0.99),
				len(t.win.writes), t.win.writes.quantile(0.99), t.setup.Seconds(), restarts(t))
		}
	} else {
		counted = traced
		for name, unit := range layerUnits {
			if libTxOnly[name] && o.workload != "lib-tx" {
				continue
			}
			put(name, unit, over(traced, func(t *trial) float64 { return t.layers[name] }))
		}
		put("core.attach_ms", "ms", all(traced, func(t *trial) []float64 { return t.attach })*1e3)
		put("kvserve.new_ms", "ms", all(traced, func(t *trial) []float64 { return t.open })*1e3)
		put("mtm.recovery_replayed", "count", over(traced, func(t *trial) float64 { return float64(t.replayed) }))
		plainOps := over(plain, func(t *trial) float64 { return t.win.opsPerSec() })
		tracedOps := over(traced, func(t *trial) float64 { return t.win.opsPerSec() })
		put("trace.untraced_ops_s", "1/s", plainOps)
		put("trace.traced_ops_s", "1/s", tracedOps)
		put("trace.overhead_share", "ratio", 1-tracedOps/plainOps)
		var spans spanLog
		for _, t := range traced {
			spans.merge(&t.win.spans)
		}
		path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := spans.write(path); err != nil {
			return nil, err
		}
		spans.summarize(os.Stderr)
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s; tracing overhead %.1f%% of untraced ops/s (%.0f vs %.0f)\n",
			path, 100*(1-tracedOps/plainOps), tracedOps, plainOps)
	}
	for _, t := range counted {
		res.Attempted += t.win.attempted
		res.Failed += t.win.failed
	}
	if o.trace {
		put("client.error_share", "ratio", float64(res.Failed)/float64(res.Attempted))
	}
	res.Correct = chk.ok()
	chk.report(os.Stderr)
	return res, nil
}

// restarts is each crash cycle's restart time, Attach plus reopen.
func restarts(t *trial) []float64 {
	v := make([]float64, len(t.attach))
	for i := range v {
		v[i] = t.attach[i] + t.open[i]
	}
	return v
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
