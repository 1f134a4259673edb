package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// val names one value a client wrote: its sequence number (0 = absent)
// and its length. The bytes are regenerated from the key, the sequence
// number and the length, so a model entry costs 12 bytes and a stale or
// misplaced value can never match.
type val struct {
	seq uint64
	n   int32
}

// value is the bytes of v for key: "key#seq|" followed by filler that
// also depends on seq, to length v.n.
func value(key string, v val) []byte {
	b := make([]byte, 0, v.n)
	b = append(b, key...)
	b = append(b, '#')
	b = strconv.AppendUint(b, v.seq, 10)
	b = append(b, '|')
	for i := len(b); i < int(v.n); i++ {
		b = append(b, byte('a'+(v.seq*7+uint64(i))%26))
	}
	return b
}

// slot is the model of one key (or hash field): the value the server
// must hold. After a write answered with an error the outcome is
// unknown, so the value before it is accepted too until a read settles
// which one the server has.
type slot struct {
	cur, alt val
	amb      bool
}

func (s *slot) wrote(v val, failed bool) {
	if failed {
		if !s.amb {
			s.alt, s.amb = s.cur, true
		}
		s.cur = v
		return
	}
	s.cur, s.amb = v, false
}

var errMismatch = errors.New("mismatch")

// check compares what the server returned for key (present, got) with
// the model, settling an ambiguous slot to the value seen.
func (s *slot) check(key string, got []byte, present bool) error {
	match := func(v val) bool {
		if v.seq == 0 {
			return !present
		}
		return present && len(got) == int(v.n) && bytes.Equal(got, value(key, v))
	}
	if match(s.cur) {
		s.amb = false
		return nil
	}
	if s.amb && match(s.alt) {
		s.cur, s.amb = s.alt, false
		return nil
	}
	return fmt.Errorf("%w: %s: got %s, want %s", errMismatch, key, describe(got, present), describe(value(key, s.cur), s.cur.seq != 0))
}

func describe(b []byte, present bool) string {
	if !present {
		return "absent"
	}
	if len(b) > 24 {
		return fmt.Sprintf("%q... (%d bytes)", b[:24], len(b))
	}
	return fmt.Sprintf("%q", b)
}

// checker collects correctness failures from every client.
type checker struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (c *checker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, err.Error())
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n == 0
}

func (c *checker) report(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		fmt.Fprintln(w, "perfbench: every reply and every recovered value matched the model")
		return
	}
	fmt.Fprintf(w, "perfbench: %d correctness failures; first ones:\n", c.n)
	for _, m := range c.msgs {
		fmt.Fprintln(w, "  ", m)
	}
}

// selfTest shows that the checks can fail: a corrupted reply, a stale
// reply, a corrupted recovered value and a lost recovered value must all
// be rejected by the same code the clients and the verifier run, and the
// true values accepted.
func selfTest() error {
	const key = "selftest"
	s := &slot{}
	s.wrote(val{seq: 41, n: 100}, false)
	s.wrote(val{seq: 42, n: 300}, false)
	good := value(key, s.cur)
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 1
	cases := []struct {
		name    string
		got     []byte
		present bool
		want    bool
	}{
		{"true reply", good, true, true},
		{"corrupted reply", corrupt, true, false},
		{"stale reply", value(key, val{seq: 41, n: 100}), true, false},
		{"truncated recovered value", good[:len(good)-1], true, false},
		{"lost recovered value", nil, false, false},
	}
	for _, c := range cases {
		if err := s.check(key, c.got, c.present); (err == nil) != c.want {
			return fmt.Errorf("harness self-test: %s: check returned %v", c.name, err)
		}
	}
	e := ephSlot{slot: *s, sent: 1e9, acked: 2e9, px: 100}
	if err := e.check(key, good, true, 4e9, 4e9); err == nil {
		return errors.New("harness self-test: an ephemeral key read 2 s past its deadline passed")
	}
	if err := e.check(key, nil, false, 1e9+50e6, 1e9+60e6); err == nil {
		return errors.New("harness self-test: an ephemeral key lost before its deadline passed")
	}
	return nil
}

// ephSlot models a key written with a short PX deadline: sent is the
// wall-clock time (UNIX ns) of the flush that carried the write, acked
// the time its reply arrived. The server stamps the deadline between
// the two.
type ephSlot struct {
	slot
	sent, acked int64
	px          int64 // ms
}

// ephGrace is how long past its deadline an ephemeral key may still
// read back.
const ephGrace = int64(1e9)

// check applies the expiry contract to a read the server served between
// wall-clock times from and to (UNIX ns): present with its value if the
// read ended before the earliest possible deadline, absent if it began
// ephGrace after the latest possible deadline, either in between.
func (e *ephSlot) check(key string, got []byte, present bool, from, to int64) error {
	if e.cur.seq == 0 {
		return e.slot.check(key, got, present)
	}
	ms := e.px * 1e6
	switch {
	case from > e.acked+ms+ephGrace:
		if present {
			return fmt.Errorf("%w: %s read %s, more than 1 s past its deadline", errMismatch, key, describe(got, true))
		}
		return nil
	case to < e.sent+ms:
		return e.slot.check(key, got, present)
	case !present:
		return nil
	default:
		return e.slot.check(key, got, present)
	}
}
