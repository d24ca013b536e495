package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"pamakv/internal/proto"
)

// replyTimeout bounds the wait for any one reply; a server that stops
// answering fails the run instead of hanging it.
const replyTimeout = 20 * time.Second

// client is one load-generator connection. Its buffers are reused for every
// request and reply, so steady-state sending and checking allocate nothing.
type client struct {
	nc   net.Conn
	w    *bufio.Writer
	rr   *proto.RespReader
	keys []key
	// line and sval are the sender's scratch, exp the checker's; the two
	// sides run on different goroutines in the open loop.
	line, sval, exp []byte
	// failed counts wrong or missing replies; firstBad describes the first.
	failed   int
	firstBad string
}

func dial(addr string, keys []key) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{
		nc:   nc,
		w:    bufio.NewWriterSize(nc, 1<<16),
		rr:   proto.NewRespReader(bufio.NewReaderSize(nc, 1<<16)),
		keys: keys,
	}, nil
}

func (c *client) close() { c.nc.Close() }

// send buffers one request.
func (c *client) send(o op) {
	k := &c.keys[o.key]
	l := c.line[:0]
	switch o.kind {
	case opGet:
		l = append(l, "get "...)
		l = append(l, k.text...)
		l = append(l, "\r\n"...)
		c.w.Write(l)
	case opDelete:
		l = append(l, "delete "...)
		l = append(l, k.text...)
		l = append(l, "\r\n"...)
		c.w.Write(l)
	case opSet:
		l = append(l, "set "...)
		l = append(l, k.text...)
		l = append(l, " 0 0 "...)
		l = strconv.AppendInt(l, int64(k.size), 10)
		l = append(l, "\r\n"...)
		c.w.Write(l)
		c.sval = synthInto(c.sval, k.hash, k.size)
		c.w.Write(c.sval)
		c.w.WriteString("\r\n")
	}
	c.line = l
}

// recv reads and checks the reply to o. A wrong reply is counted and the
// run goes on; a broken stream is returned as an error.
func (c *client) recv(o op) error {
	r, err := c.rr.Next()
	if err != nil {
		return fmt.Errorf("reading reply: %w", err)
	}
	k := &c.keys[o.key]
	bad := ""
	switch o.kind {
	case opGet:
		switch {
		case r.Status != proto.StatusEnd:
			bad = "status " + r.Status.String() + " " + string(r.Msg)
		case len(r.Values) != 1:
			bad = "missing value"
		case string(r.Values[0].Key) != k.text || r.Values[0].Flags != 0:
			bad = "wrong key or flags"
		default:
			c.exp = synthInto(c.exp, k.hash, k.size)
			if !bytes.Equal(r.Values[0].Data, c.exp) {
				bad = "wrong value (" + strconv.Itoa(len(r.Values[0].Data)) + " bytes, want " + strconv.Itoa(k.size) + ")"
			}
		}
	case opSet:
		if r.Status != proto.StatusStored {
			bad = "status " + r.Status.String() + " " + string(r.Msg)
		}
	case opDelete:
		if r.Status != proto.StatusDeleted && r.Status != proto.StatusNotFound {
			bad = "status " + r.Status.String() + " " + string(r.Msg)
		}
	}
	if bad != "" {
		if c.failed == 0 {
			c.firstBad = fmt.Sprintf("%s %q: %s", [...]string{"get", "set", "delete"}[o.kind], k.text, bad)
		}
		c.failed++
	}
	return nil
}

// runBatches drives ops closed-loop in lockstep batches of depth requests
// and returns the completion time of each batch's last reply (ns from
// start) with the op count completed by then.
func (c *client) runBatches(ops []op, depth int, start time.Time) ([]progress, error) {
	prog := make([]progress, 0, len(ops)/depth+1)
	for i := 0; i < len(ops); i += depth {
		j := min(i+depth, len(ops))
		for _, o := range ops[i:j] {
			c.send(o)
		}
		if err := c.w.Flush(); err != nil {
			return nil, fmt.Errorf("sending: %w", err)
		}
		c.nc.SetReadDeadline(time.Now().Add(replyTimeout))
		for _, o := range ops[i:j] {
			if err := c.recv(o); err != nil {
				return nil, err
			}
		}
		prog = append(prog, progress{int64(time.Since(start)), j})
	}
	return prog, nil
}

// progress marks that done ops of a connection had completed at t.
type progress struct {
	t    int64
	done int
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil sleeps d on the calling thread, which must be locked to its
// goroutine and have a small timer slack. The runtime's timers wake a
// sleeper up to a millisecond late on Linux, and a blocking syscall lets the
// runtime hand the thread's P away, so waking means queueing for a P again.
// A short sleep is therefore a raw nanosleep that keeps the P: the thread
// wakes straight from the kernel, tens of microseconds late at most.
func sleepUntil(d int64) {
	if d > int64(2*time.Millisecond) {
		time.Sleep(time.Duration(d - int64(time.Millisecond)))
		return
	}
	ts := syscall.NsecToTimespec(d)
	syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
}

// runOpen drives ops open-loop: each op is sent at its scheduled time
// due[i] (ns from start) whether or not earlier replies have arrived. It
// returns each op's latency from its scheduled time and how late the
// generator was in starting to send it.
func (c *client) runOpen(ops []op, due []int64, start time.Time) (lat, late []int64, err error) {
	lat = make([]int64, len(ops))
	late = make([]int64, len(ops))
	var sendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
		for i := 0; i < len(ops); {
			now := int64(time.Since(start))
			if now < due[i] {
				sleepUntil(due[i] - now)
				continue
			}
			// Send everything already due in one write; a late
			// generator coalesces, it never drops.
			for ; i < len(ops) && due[i] <= now; i++ {
				late[i] = now - due[i]
				c.send(ops[i])
			}
			if err := c.w.Flush(); err != nil {
				sendErr = err
				c.nc.Close() // unblock the reader
				return
			}
		}
	}()
	for i, o := range ops {
		if i%1024 == 0 {
			c.nc.SetReadDeadline(time.Now().Add(replyTimeout))
		}
		if err = c.recv(o); err != nil {
			c.nc.Close() // unblock the sender
			break
		}
		lat[i] = int64(time.Since(start)) - due[i]
	}
	wg.Wait()
	if sendErr != nil && !errors.Is(sendErr, net.ErrClosed) {
		return nil, nil, fmt.Errorf("sending: %w", sendErr)
	}
	return lat, late, err
}

// split deals ops (and their schedule) round-robin over n connections.
func split(ops []op, due []int64, n int) ([][]op, [][]int64) {
	po := make([][]op, n)
	pd := make([][]int64, n)
	for i, o := range ops {
		po[i%n] = append(po[i%n], o)
		if due != nil {
			pd[i%n] = append(pd[i%n], due[i])
		}
	}
	return po, pd
}

// closedResult is one closed-loop phase.
type closedResult struct {
	prog      [][]progress
	failed    int
	firstFail string
}

// runClosed drives ops closed-loop over the clients.
func runClosed(cls []*client, ops []op, depth int) (closedResult, error) {
	parts, _ := split(ops, nil, len(cls))
	res := closedResult{prog: make([][]progress, len(cls))}
	errs := make([]error, len(cls))
	before := failures(cls)
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cls {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			res.prog[i], errs[i] = c.runBatches(parts[i], depth, start)
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	res.failed = failures(cls) - before
	res.firstFail = firstFailure(cls)
	return res, nil
}

// openResult is one open-loop run, per op in stream order.
type openResult struct {
	lat, late []int64
	failed    int
	firstFail string
}

// runOpenPhase drives ops open-loop over the clients.
func runOpenPhase(cls []*client, ops []op, due []int64) (openResult, error) {
	parts, dues := split(ops, due, len(cls))
	lats := make([][]int64, len(cls))
	lates := make([][]int64, len(cls))
	errs := make([]error, len(cls))
	before := failures(cls)
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cls {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			lats[i], lates[i], errs[i] = c.runOpen(parts[i], dues[i], start)
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return openResult{}, err
	}
	// Undo the round-robin split so results line up with the stream.
	res := openResult{lat: make([]int64, len(ops)), late: make([]int64, len(ops))}
	for i := range ops {
		res.lat[i] = lats[i%len(cls)][i/len(cls)]
		res.late[i] = lates[i%len(cls)][i/len(cls)]
	}
	res.failed = failures(cls) - before
	res.firstFail = firstFailure(cls)
	return res, nil
}

func failures(cls []*client) int {
	n := 0
	for _, c := range cls {
		n += c.failed
	}
	return n
}

func firstFailure(cls []*client) string {
	for _, c := range cls {
		if c.failed > 0 {
			return c.firstBad
		}
	}
	return ""
}
