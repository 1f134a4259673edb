package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/pds"
	"repro/internal/pmem"
	"repro/internal/scm"
)

// lib-tx drives the library API with no network: goroutines on one PM
// over a pds hash map, half writes through per-call leasing and half
// snapshot Views.
const (
	libWorkers  = 2
	libKeys     = 40000 // preloaded uint64 keys, split between the workers
	libBuckets  = 1 << 16
	libMaxKeys  = 4  // keys per write or read
	libPreload  = 20 // keys per preload transaction, within the redo log's capacity
	libMapRoot  = "perfbench.map"
	libReadRate = 0.5
)

type libBench struct {
	cfg core.Config
	dir string
	p   *core.PM
	m   pds.Map
	w   []*libWorker
	win window
}

func newLibTx(seed int64, traced bool, dir string, chk *checker) bench {
	b := &libBench{cfg: config(dir, traced), dir: dir}
	for id := 0; id < libWorkers; id++ {
		w := &libWorker{id: id, chk: chk, rng: rand.New(rand.NewSource(seed*7919 + 100 + int64(id)))}
		for k := uint64(id); k < libKeys; k += libWorkers {
			w.keys = append(w.keys, k+1)
		}
		w.model = make([]slot, len(w.keys))
		b.w = append(b.w, w)
	}
	return b
}

func (b *libBench) pm() *core.PM     { return b.p }
func (b *libBench) results() *window { return &b.win }

// open reaches the map through its named root, creating it on first use.
func (b *libBench) open(p *core.PM) (pds.Map, error) {
	root, _, err := p.Static(libMapRoot, 8)
	if err != nil {
		return nil, err
	}
	return pds.NewMap(pds.BackendMTM, pds.Env{TM: p.TM()}, root, libBuckets)
}

func (b *libBench) setup() error {
	p, err := core.Open(b.cfg)
	if err != nil {
		return err
	}
	b.p = p
	if b.m, err = b.open(p); err != nil {
		return err
	}
	pool := p.ThreadPool()
	th, err := pool.Lease(context.Background())
	if err != nil {
		return err
	}
	for _, w := range b.w {
		for s := 0; s < len(w.keys); s += libPreload {
			e := min(s+libPreload, len(w.keys))
			vals := make([]val, e-s)
			for i := range vals {
				vals[i] = w.newVal()
			}
			err := th.Atomic(func(tx *mtm.Tx) error {
				for i := s; i < e; i++ {
					if err := b.m.Put(tx, w.keys[i], value(keyName(w.keys[i]), vals[i-s])); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				pool.Release(th)
				return err
			}
			for i := s; i < e; i++ {
				w.model[i].cur = vals[i-s]
			}
		}
	}
	return pool.Release(th)
}

func keyName(k uint64) string { return "t:" + strconv.FormatUint(k, 10) }

func (b *libBench) drive(from, end time.Time, traced bool) error {
	errs := make([]error, len(b.w))
	var wg sync.WaitGroup
	for i, w := range b.w {
		w.win = newWindow(from, end, traced)
		wg.Add(1)
		go func(i int, w *libWorker) {
			defer wg.Done()
			errs[i] = w.run(b.p, b.m, from, end)
		}(i, w)
	}
	wg.Wait()
	b.win = newWindow(from, end, traced)
	for _, w := range b.w {
		b.win.add(&w.win)
	}
	return errors.Join(errs...)
}

func (b *libBench) restart() (attach, open time.Duration, err error) {
	b.p.TM().StopTruncation()
	dev := b.p.Device()
	dev.Crash(scm.DropAll{})
	t0 := time.Now()
	p, err := core.Attach(dev, b.cfg)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	m, err := b.open(p)
	if err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	b.p, b.m = p, m
	return t1.Sub(t0), t2.Sub(t1), nil
}

func (b *libBench) verify() error {
	for _, w := range b.w {
		for s := 0; s < len(w.keys); s += libPreload {
			e := min(s+libPreload, len(w.keys))
			got := make([][]byte, e-s)
			present := make([]bool, e-s)
			err := b.p.View(func(r *mtm.ReadTx) error {
				for i := s; i < e; i++ {
					v, err := b.m.Get(r, w.keys[i])
					got[i-s], present[i-s] = v, err == nil
					if err != nil && !errors.Is(err, pds.ErrNotFound) {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			for i := s; i < e; i++ {
				if err := w.model[i].check(keyName(w.keys[i]), got[i-s], present[i-s]); err != nil {
					w.chk.fail(fmt.Errorf("worker %d after crash: %w", w.id, err))
				}
			}
		}
	}
	return nil
}

func (b *libBench) space() (heap, live int64) {
	b.p.Heap().ForEachAllocated(func(_ pmem.Addr, size int64) bool {
		heap += size
		return true
	})
	for _, w := range b.w {
		for i := range w.model {
			live += 8 + int64(w.model[i].cur.n)
		}
	}
	return heap, live
}

func (b *libBench) close() {
	if b.p != nil {
		if err := b.p.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close:", err)
		}
		b.p = nil
	}
	if err := os.RemoveAll(b.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
	}
}

func (b *libBench) tamper(chk *checker) func() {
	w := b.w[0]
	saved := w.chk
	w.chk = chk
	w.model[0].cur.seq++
	return func() {
		w.chk = saved
		w.model[0].cur.seq--
	}
}

// libWorker is one goroutine. It owns a disjoint partition of the keys
// and models each of them.
type libWorker struct {
	id    int
	chk   *checker
	rng   *rand.Rand
	keys  []uint64
	model []slot
	seq   uint64
	reqs  uint64
	win   window
}

func (w *libWorker) newVal() val {
	w.seq++
	return val{seq: w.seq, n: int32(minValue + w.rng.Intn(maxValue-minValue+1))}
}

// pick fills idx with 1 to libMaxKeys distinct key indexes.
func (w *libWorker) pick(idx []int) []int {
	n := 1 + w.rng.Intn(libMaxKeys)
	for len(idx) < n {
		i := w.rng.Intn(len(w.keys))
		dup := false
		for _, j := range idx {
			dup = dup || i == j
		}
		if !dup {
			idx = append(idx, i)
		}
	}
	return idx
}

func (w *libWorker) run(p *core.PM, m pds.Map, from, end time.Time) error {
	pool := p.ThreadPool()
	ctx := context.Background()
	idx := make([]int, 0, libMaxKeys)
	vals := make([]val, libMaxKeys)
	got := make([][]byte, libMaxKeys)
	present := make([]bool, libMaxKeys)
	sp := &w.win.spans
	for time.Now().Before(end) {
		idx = w.pick(idx[:0])
		w.reqs++
		req := uint64(w.id)<<48 | w.reqs
		t0 := time.Now()
		timed := !t0.Before(from)
		if w.rng.Float64() < libReadRate {
			var root int32
			if timed {
				root = sp.add(spLibRead, req, 0, t0, t0)
			}
			err := p.View(func(r *mtm.ReadTx) error {
				for j, i := range idx {
					g0 := time.Now()
					v, err := m.Get(r, w.keys[i])
					if timed {
						sp.add(spGetLib, req, root, g0, time.Now())
					}
					got[j], present[j] = v, err == nil
					if err != nil && !errors.Is(err, pds.ErrNotFound) {
						return err
					}
				}
				return nil
			})
			t1 := time.Now()
			sp.finish(root, t1)
			if err == nil {
				for j, i := range idx {
					if err := w.model[i].check(keyName(w.keys[i]), got[j], present[j]); err != nil {
						w.chk.fail(fmt.Errorf("worker %d read: %w", w.id, err))
					}
				}
			}
			w.win.record(false, err != nil, t0, t1)
			continue
		}

		for j := range idx {
			vals[j] = w.newVal()
		}
		var root int32
		if timed {
			root = sp.add(spLibWrite, req, 0, t0, t0)
		}
		th, err := pool.Lease(ctx)
		t1 := time.Now()
		if timed {
			sp.add(spLease, req, root, t0, t1)
		}
		if err != nil {
			sp.finish(root, t1)
			w.win.record(true, true, t0, t1)
			continue
		}
		var atomic int32
		if timed {
			atomic = sp.add(spAtomic, req, root, t1, t1)
		}
		err = th.Atomic(func(tx *mtm.Tx) error {
			for j, i := range idx {
				p0 := time.Now()
				err := m.Put(tx, w.keys[i], value(keyName(w.keys[i]), vals[j]))
				if timed {
					sp.add(spPut, req, atomic, p0, time.Now())
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		t2 := time.Now()
		sp.finish(atomic, t2)
		for j, i := range idx {
			w.model[i].wrote(vals[j], err != nil)
		}
		rerr := pool.Release(th)
		t3 := time.Now()
		if timed {
			sp.add(spRelease, req, root, t2, t3)
		}
		sp.finish(root, t3)
		w.win.record(true, err != nil || rerr != nil, t0, t3)
	}
	return nil
}
