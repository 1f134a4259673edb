package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvserve"
	"repro/internal/pmem"
	"repro/internal/resp"
	"repro/internal/scm"
)

// The kv workloads serve RESP over loopback from kvserve.New, the
// server kvserved runs with its default (mtm) backend.
const (
	kvClients  = 2
	kvKeys     = 40000 // preloaded string keys, split between the clients
	hashesPer  = 500   // hash keys per client, created by HSET
	hashFields = 4
	ephPer     = 1000 // ephemeral (SET PX) keys per client
	pipeDepth  = 16   // commands per flush
	preloadSet = 50   // keys per preload MSET
	msetKeys   = 4
	mgetKeys   = 8
	minValue   = 64
	maxValue   = 1024
	farTTL     = "3600" // SET EX seconds: never reached within a run
	minPX      = 100    // SET PX milliseconds
	maxPX      = 500
	zipfS      = 1.1 // kv-read key skew
)

type kvBench struct {
	write  bool
	dir    string
	cfg    core.Config
	p      *core.PM
	srv    *kvserve.Server
	served chan error
	addr   string
	cl     []*kvClient
	win    window
}

func newKVWrite(seed int64, traced bool, dir string, chk *checker) bench {
	return newKV(seed, traced, dir, chk, true)
}

func newKVRead(seed int64, traced bool, dir string, chk *checker) bench {
	return newKV(seed, traced, dir, chk, false)
}

func newKV(seed int64, traced bool, dir string, chk *checker, write bool) *kvBench {
	b := &kvBench{write: write, dir: dir, cfg: config(dir, traced)}
	for id := 0; id < kvClients; id++ {
		b.cl = append(b.cl, newKVClient(id, seed, chk))
	}
	return b
}

func (b *kvBench) pm() *core.PM     { return b.p }
func (b *kvBench) results() *window { return &b.win }

// listen serves srv on a fresh loopback port.
func (b *kvBench) listen(srv *kvserve.Server) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv, b.addr = srv, l.Addr().String()
	b.served = make(chan error, 1)
	go func() { b.served <- srv.ServeRESP(l) }()
	return nil
}

// stop closes the server and waits for its accept loop to return.
func (b *kvBench) stop() error {
	if b.srv == nil {
		return nil
	}
	err := b.srv.Close()
	if serr := <-b.served; err == nil {
		err = serr
	}
	b.srv = nil
	return err
}

func (b *kvBench) setup() error {
	p, err := core.Open(b.cfg)
	if err != nil {
		return err
	}
	b.p = p
	srv, err := kvserve.New(p)
	if err != nil {
		return err
	}
	if err := b.listen(srv); err != nil {
		return err
	}
	return b.each(func(c *kvClient) error {
		if err := c.dial(b.addr); err != nil {
			return err
		}
		return c.preload()
	})
}

// each runs fn for every client concurrently and joins their errors.
func (b *kvBench) each(fn func(c *kvClient) error) error {
	errs := make([]error, len(b.cl))
	var wg sync.WaitGroup
	for i, c := range b.cl {
		wg.Add(1)
		go func(i int, c *kvClient) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *kvBench) drive(from, end time.Time, traced bool) error {
	err := b.each(func(c *kvClient) error {
		c.win = newWindow(from, end, traced)
		if b.write {
			return c.run(from, end, c.nextWrite)
		}
		return c.run(from, end, c.nextRead)
	})
	b.win = newWindow(from, end, traced)
	for _, c := range b.cl {
		b.win.add(&c.win)
		c.hangup()
	}
	return err
}

func (b *kvBench) restart() (attach, open time.Duration, err error) {
	if err := b.stop(); err != nil {
		return 0, 0, err
	}
	b.p.TM().StopTruncation()
	dev := b.p.Device()
	dev.Crash(scm.DropAll{})
	t0 := time.Now()
	p, err := core.Attach(dev, b.cfg)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	srv, err := kvserve.New(p)
	if err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	b.p = p
	return t1.Sub(t0), t2.Sub(t1), b.listen(srv)
}

func (b *kvBench) verify() error {
	return b.each(func(c *kvClient) error {
		if err := c.dial(b.addr); err != nil {
			return err
		}
		defer c.hangup()
		return c.verify()
	})
}

func (b *kvBench) space() (heap, live int64) {
	if err := b.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stop:", err)
	}
	b.p.Heap().ForEachAllocated(func(_ pmem.Addr, size int64) bool {
		heap += size
		return true
	})
	for _, c := range b.cl {
		live += c.liveBytes()
	}
	return heap, live
}

func (b *kvBench) close() {
	for _, c := range b.cl {
		c.hangup()
	}
	if err := b.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stop:", err)
	}
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

func (b *kvBench) tamper(chk *checker) func() {
	c := b.cl[0]
	saved := c.chk
	c.chk = chk
	c.strs[0].cur.seq++
	return func() {
		c.chk = saved
		c.strs[0].cur.seq--
	}
}

// kvClient is one connection. It owns a disjoint partition of the
// keyspace and models every key in it, so each reply can be checked.
type kvClient struct {
	id     int
	chk    *checker
	rng    *rand.Rand
	zipf   *rand.Zipf
	perm   []int // zipf rank -> key index, so hot keys are spread out
	keys   []string
	strs   []slot
	hkeys  []string
	hashes [][hashFields]slot
	ekeys  []string
	eph    []ephSlot
	seq    uint64
	reqs   uint64

	conn net.Conn
	bw   *bufio.Writer
	w    *resp.Writer
	r    *resp.Reader
	ops  []kvOp
	args [][]byte
	win  window
}

// kvOp is one command of a batch. idx index the verb's key set (string
// keys, hash keys or ephemeral keys); vals are the values written.
type kvOp struct {
	verb  uint8
	n     int
	idx   [mgetKeys]int
	vals  [msetKeys]val
	field int
	px    int
}

var fieldNames = [hashFields]string{"f0", "f1", "f2", "f3"}

func newKVClient(id int, seed int64, chk *checker) *kvClient {
	c := &kvClient{id: id, chk: chk, rng: rand.New(rand.NewSource(seed*7919 + int64(id)))}
	for g := id; g < kvKeys; g += kvClients {
		c.keys = append(c.keys, fmt.Sprintf("k:%05d", g))
	}
	c.strs = make([]slot, len(c.keys))
	for i := 0; i < hashesPer; i++ {
		c.hkeys = append(c.hkeys, fmt.Sprintf("h:%d:%03d", id, i))
	}
	c.hashes = make([][hashFields]slot, hashesPer)
	for i := 0; i < ephPer; i++ {
		c.ekeys = append(c.ekeys, fmt.Sprintf("e:%d:%03d", id, i))
	}
	c.eph = make([]ephSlot, ephPer)
	c.zipf = rand.NewZipf(c.rng, zipfS, 1, uint64(len(c.keys)-1))
	c.perm = c.rng.Perm(len(c.keys))
	return c
}

func (c *kvClient) dial(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.conn = conn
	// Big enough for a whole batch, so a batch leaves in one write at
	// flush and the flush time bounds when the server could see it.
	c.bw = bufio.NewWriterSize(conn, 1<<20)
	c.w = resp.NewWriter(c.bw)
	c.r = resp.NewReader(conn)
	return nil
}

func (c *kvClient) hangup() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *kvClient) flush() error {
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *kvClient) newVal() val {
	c.seq++
	return val{seq: c.seq, n: int32(minValue + c.rng.Intn(maxValue-minValue+1))}
}

func (c *kvClient) fieldKey(h, f int) string { return c.hkeys[h] + "/" + fieldNames[f] }

var (
	cmdGET  = []byte("GET")
	cmdMGET = []byte("MGET")
	cmdSET  = []byte("SET")
	cmdHSET = []byte("HSET")
	cmdMSET = []byte("MSET")
	cmdHGA  = []byte("HGETALL")
	optEX   = []byte("EX")
	optPX   = []byte("PX")
	farTTLb = []byte(farTTL)
)

func (c *kvClient) send(op *kvOp) error {
	a := c.args[:0]
	switch op.verb {
	case spGet:
		a = append(a, cmdGET, []byte(c.keys[op.idx[0]]))
	case spMGet:
		a = append(a, cmdMGET)
		for i := 0; i < op.n; i++ {
			a = append(a, []byte(c.keys[op.idx[i]]))
		}
	case spSet, spSetEX:
		k := c.keys[op.idx[0]]
		a = append(a, cmdSET, []byte(k), value(k, op.vals[0]))
		if op.verb == spSetEX {
			a = append(a, optEX, farTTLb)
		}
	case spSetPX:
		k := c.ekeys[op.idx[0]]
		a = append(a, cmdSET, []byte(k), value(k, op.vals[0]), optPX, []byte(strconv.Itoa(op.px)))
	case spHSet:
		h, f := op.idx[0], op.field
		a = append(a, cmdHSET, []byte(c.hkeys[h]), []byte(fieldNames[f]), value(c.fieldKey(h, f), op.vals[0]))
	case spMSet:
		a = append(a, cmdMSET)
		for i := 0; i < op.n; i++ {
			k := c.keys[op.idx[i]]
			a = append(a, []byte(k), value(k, op.vals[i]))
		}
	}
	c.args = a
	return c.w.WriteCommand(a...)
}

func isOK(v resp.Value) bool { return v.Type == '+' && v.Str == "OK" }

// apply checks one reply against the model and folds the command into
// it. Replies are applied in request order, which is the order the
// server applies commands to any one key, so the model holds exactly
// what the server must return. It reports whether the command failed.
func (c *kvClient) apply(op *kvOp, v resp.Value, sent, acked time.Time) bool {
	failed := v.Type == '-'
	bad := func(err error) { c.chk.fail(fmt.Errorf("client %d %s: %w", c.id, spanNames[op.verb], err)) }
	switch op.verb {
	case spGet:
		if failed {
			break
		}
		if v.Type != '$' {
			bad(fmt.Errorf("reply type %q", v.Type))
		} else if err := c.strs[op.idx[0]].check(c.keys[op.idx[0]], v.Bulk, !v.Null); err != nil {
			bad(err)
		}
	case spMGet:
		if failed {
			break
		}
		if v.Type != '*' || len(v.Array) != op.n {
			bad(fmt.Errorf("reply %q with %d elements, want %d", v.Type, len(v.Array), op.n))
			break
		}
		for i := 0; i < op.n; i++ {
			e := v.Array[i]
			if err := c.strs[op.idx[i]].check(c.keys[op.idx[i]], e.Bulk, e.Type == '$' && !e.Null); err != nil {
				bad(err)
			}
		}
	case spSet, spSetEX:
		c.strs[op.idx[0]].wrote(op.vals[0], failed)
	case spSetPX:
		e := &c.eph[op.idx[0]]
		e.wrote(op.vals[0], failed)
		e.sent, e.acked, e.px = sent.UnixNano(), acked.UnixNano(), int64(op.px)
	case spHSet:
		f := &c.hashes[op.idx[0]][op.field]
		added := int64(0)
		if f.cur.seq == 0 {
			added = 1
		}
		either := f.amb && (f.alt.seq == 0) != (f.cur.seq == 0)
		f.wrote(op.vals[0], failed)
		if !failed && (v.Type != ':' || (v.Int != added && !either)) {
			bad(fmt.Errorf("%s %s: reply %q %d, want integer %d", c.hkeys[op.idx[0]], fieldNames[op.field], v.Type, v.Int, added))
		}
	case spMSet:
		for i := 0; i < op.n; i++ {
			c.strs[op.idx[i]].wrote(op.vals[i], failed)
		}
	}
	switch op.verb {
	case spSet, spSetEX, spSetPX, spMSet:
		if !failed && !isOK(v) {
			bad(fmt.Errorf("reply %q %q, want OK", v.Type, v.Str))
		}
	}
	return failed
}

func isWrite(verb uint8) bool { return verb != spGet && verb != spMGet }

// distinct fills op.idx[:n] with distinct indexes drawn by pick.
func distinct(op *kvOp, n int, pick func() int) {
	op.n = n
	for i := 0; i < n; {
		op.idx[i] = pick()
		dup := false
		for j := 0; j < i; j++ {
			dup = dup || op.idx[j] == op.idx[i]
		}
		if !dup {
			i++
		}
	}
}

// nextWrite draws one kv-write command: ~55% SET, ~15% SET EX (far
// deadline), ~5% SET PX (short deadline, ephemeral keys), ~10% HSET,
// ~5% MSET of 4 keys, ~10% GET, with uniform keys.
func (c *kvClient) nextWrite() kvOp {
	op := kvOp{n: 1}
	uniform := func() int { return c.rng.Intn(len(c.keys)) }
	switch r := c.rng.Float64(); {
	case r < 0.55:
		op.verb = spSet
	case r < 0.70:
		op.verb = spSetEX
	case r < 0.75:
		op.verb, op.idx[0] = spSetPX, c.rng.Intn(ephPer)
		op.px = minPX + c.rng.Intn(maxPX-minPX+1)
		op.vals[0] = c.newVal()
		return op
	case r < 0.85:
		op.verb, op.idx[0], op.field = spHSet, c.rng.Intn(hashesPer), c.rng.Intn(hashFields)
		op.vals[0] = c.newVal()
		return op
	case r < 0.90:
		op.verb = spMSet
		distinct(&op, msetKeys, uniform)
		for i := 0; i < msetKeys; i++ {
			op.vals[i] = c.newVal()
		}
		return op
	default:
		op.verb, op.idx[0] = spGet, uniform()
		return op
	}
	op.idx[0] = uniform()
	op.vals[0] = c.newVal()
	return op
}

// nextRead draws one kv-read command: ~90% GET, ~5% MGET of 8 keys, ~5%
// SET, with Zipf-skewed keys.
func (c *kvClient) nextRead() kvOp {
	op := kvOp{n: 1}
	hot := func() int { return c.perm[c.zipf.Uint64()] }
	switch r := c.rng.Float64(); {
	case r < 0.90:
		op.verb, op.idx[0] = spGet, hot()
	case r < 0.95:
		op.verb = spMGet
		op.n = mgetKeys
		for i := range op.idx {
			op.idx[i] = hot()
		}
	default:
		op.verb, op.idx[0] = spSet, hot()
		op.vals[0] = c.newVal()
	}
	return op
}

// roundTrip sends c.ops as one pipelined batch and applies the replies,
// timing each from the flush to its reply.
func (c *kvClient) roundTrip(from time.Time) error {
	for i := range c.ops {
		if err := c.send(&c.ops[i]); err != nil {
			return err
		}
	}
	sent := time.Now()
	if err := c.flush(); err != nil {
		return err
	}
	c.reqs++
	req := uint64(c.id)<<48 | c.reqs
	timed := !sent.Before(from)
	var batch int32
	if timed && len(c.ops) > 1 {
		batch = c.win.spans.add(spBatch, req, 0, sent, sent)
	}
	acked := sent
	for i := range c.ops {
		v, err := c.r.ReadValue()
		if err != nil {
			return err
		}
		acked = time.Now()
		op := &c.ops[i]
		failed := c.apply(op, v, sent, acked)
		c.win.record(isWrite(op.verb), failed, sent, acked)
		if timed {
			c.win.spans.add(op.verb, req, batch, sent, acked)
		}
	}
	c.win.spans.finish(batch, acked)
	return nil
}

// run sends batches of pipeDepth commands drawn from next until end.
// kv-read pipelines too: with one command in flight, a read's time was
// mostly the loopback round trip and its wake-ups, and ten-run medians
// of read latency spread by up to 0.27 between quartiles on a 2-vCPU VM;
// pipelined, by under 0.1.
func (c *kvClient) run(from, end time.Time, next func() kvOp) error {
	for time.Now().Before(end) {
		c.ops = c.ops[:0]
		for i := 0; i < pipeDepth; i++ {
			c.ops = append(c.ops, next())
		}
		if err := c.roundTrip(from); err != nil {
			return err
		}
	}
	return nil
}

// preload writes every string key of the partition with MSETs,
// pipelined like kv-write.
func (c *kvClient) preload() error {
	c.ops = c.ops[:0]
	for start := 0; start < len(c.keys); start += preloadSet {
		end := start + preloadSet
		if end > len(c.keys) {
			end = len(c.keys)
		}
		a := append(c.args[:0], cmdMSET)
		for i := start; i < end; i++ {
			v := c.newVal()
			a = append(a, []byte(c.keys[i]), value(c.keys[i], v))
			c.strs[i].cur = v
		}
		c.args = a
		if err := c.w.WriteCommand(a...); err != nil {
			return err
		}
		if n := start/preloadSet + 1; n%pipeDepth == 0 || end == len(c.keys) {
			if err := c.flush(); err != nil {
				return err
			}
			for i := 0; i < (n-1)%pipeDepth+1; i++ {
				v, err := c.r.ReadValue()
				if err != nil {
					return err
				}
				if !isOK(v) {
					return fmt.Errorf("preload MSET: reply %q %q", v.Type, v.Str)
				}
			}
		}
	}
	return nil
}

// verify reads back the whole partition: every string key (MGET), every
// hash (HGETALL) and every ephemeral key (GET, under the expiry
// contract).
func (c *kvClient) verify() error {
	bad := func(err error) { c.chk.fail(fmt.Errorf("client %d after crash: %w", c.id, err)) }
	// Strings, pipelined MGETs.
	for start := 0; start < len(c.keys); start += preloadSet * pipeDepth {
		var n []int
		for s := start; s < len(c.keys) && s < start+preloadSet*pipeDepth; s += preloadSet {
			e := s + preloadSet
			if e > len(c.keys) {
				e = len(c.keys)
			}
			a := append(c.args[:0], cmdMGET)
			for i := s; i < e; i++ {
				a = append(a, []byte(c.keys[i]))
			}
			c.args = a
			if err := c.w.WriteCommand(a...); err != nil {
				return err
			}
			n = append(n, s)
		}
		if err := c.flush(); err != nil {
			return err
		}
		for _, s := range n {
			v, err := c.r.ReadValue()
			if err != nil {
				return err
			}
			for i := s; i < s+preloadSet && i < len(c.keys); i++ {
				if v.Type != '*' || i-s >= len(v.Array) {
					bad(fmt.Errorf("MGET from %s: reply %q with %d elements", c.keys[s], v.Type, len(v.Array)))
					break
				}
				e := v.Array[i-s]
				if err := c.strs[i].check(c.keys[i], e.Bulk, e.Type == '$' && !e.Null); err != nil {
					bad(err)
				}
			}
		}
	}
	// Hashes.
	for h := range c.hkeys {
		if err := c.w.WriteCommand(cmdHGA, []byte(c.hkeys[h])); err != nil {
			return err
		}
	}
	if err := c.flush(); err != nil {
		return err
	}
	for h := range c.hkeys {
		v, err := c.r.ReadValue()
		if err != nil {
			return err
		}
		if v.Type != '*' || len(v.Array)%2 != 0 {
			bad(fmt.Errorf("HGETALL %s: reply %q with %d elements", c.hkeys[h], v.Type, len(v.Array)))
			continue
		}
		got := map[string][]byte{}
		for i := 0; i < len(v.Array); i += 2 {
			got[string(v.Array[i].Bulk)] = v.Array[i+1].Bulk
		}
		for f := range fieldNames {
			b, ok := got[fieldNames[f]]
			delete(got, fieldNames[f])
			if err := c.hashes[h][f].check(c.fieldKey(h, f), b, ok); err != nil {
				bad(err)
			}
		}
		for name := range got {
			bad(fmt.Errorf("HGETALL %s: unexpected field %q", c.hkeys[h], name))
		}
	}
	// Ephemeral keys. Each GET was served after the flush and before its
	// reply arrived; the expiry contract is checked against both bounds.
	for i := range c.ekeys {
		if err := c.w.WriteCommand(cmdGET, []byte(c.ekeys[i])); err != nil {
			return err
		}
	}
	from := time.Now().UnixNano()
	if err := c.flush(); err != nil {
		return err
	}
	for i := range c.ekeys {
		v, err := c.r.ReadValue()
		if err != nil {
			return err
		}
		to := time.Now().UnixNano()
		if v.Type != '$' {
			bad(fmt.Errorf("GET %s: reply %q", c.ekeys[i], v.Type))
		} else if err := c.eph[i].check(c.ekeys[i], v.Bulk, !v.Null, from, to); err != nil {
			bad(err)
		}
	}
	return nil
}

// liveBytes is the key and value bytes of the partition's live string
// keys and hash fields.
func (c *kvClient) liveBytes() int64 {
	var n int64
	for i := range c.strs {
		n += int64(len(c.keys[i])) + int64(c.strs[i].cur.n)
	}
	for h := range c.hashes {
		for f := range c.hashes[h] {
			if s := c.hashes[h][f]; s.cur.seq != 0 {
				n += int64(len(fieldNames[f])) + int64(s.cur.n)
			}
		}
	}
	return n
}
