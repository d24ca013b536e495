package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a child gets to exit after SIGTERM before its
// process group is killed.
const stopGrace = 5 * time.Second

// child is a process the benchmark started, leader of its own process group.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	log  string
}

// registry owns every child process and the run's temporary directory, and
// tears all of it down exactly once on any exit path: normal return, error,
// timeout, SIGINT or SIGTERM.
type registry struct {
	mu      sync.Mutex
	closing bool
	kids    map[*child]struct{}
	tmp     string
}

func newRegistry(parent string) (*registry, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	return &registry{kids: map[*child]struct{}{}, tmp: tmp}, nil
}

// start launches bin in a new process group that the kernel kills if the
// benchmark dies first; output goes to a log file in the temp directory.
func (r *registry) start(name, dir, bin string, args []string) (*child, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return nil, errors.New("benchmark is shutting down")
	}
	logPath := filepath.Join(r.tmp, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{}), log: logPath}
	go func() {
		cmd.Wait()
		close(c.done)
	}()
	r.kids[c] = struct{}{}
	return c, nil
}

// stop ends a child: SIGTERM to its group, SIGKILL after the grace period,
// and returns once it has been waited for.
func (r *registry) stop(c *child) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.kids[c]; ok {
		delete(r.kids, c)
		c.terminate()
	}
}

func (c *child) terminate() {
	pgid := c.cmd.Process.Pid
	syscall.Kill(-pgid, syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(stopGrace):
	}
	// Kill the group even after a clean exit of the leader: anything it
	// left behind in the group goes too.
	syscall.Kill(-pgid, syscall.SIGKILL)
	<-c.done
}

// cleanup stops every child and removes the temp directory. Later calls
// wait for the first to finish and then return.
func (r *registry) cleanup() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return
	}
	r.closing = true
	var wg sync.WaitGroup
	for c := range r.kids {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			c.terminate()
		}(c)
	}
	wg.Wait()
	clear(r.kids)
	os.RemoveAll(r.tmp)
}

// abortOnSignal tears everything down and exits when the benchmark is
// interrupted or terminated: 130 for SIGINT, 143 for SIGTERM.
func (r *registry) abortOnSignal() {
	// A closed standard output must fail a write, not kill the process
	// before it has stopped its children and removed its files.
	signal.Ignore(syscall.SIGPIPE)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping\n", sig)
		r.cleanup()
		if sig == syscall.SIGTERM {
			os.Exit(143)
		}
		os.Exit(130)
	}()
}

// abortAfter tears everything down and exits 124 if the run outlives d.
func (r *registry) abortAfter(d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v: stopping\n", d)
		r.cleanup()
		os.Exit(124)
	})
}

// runTool runs a short-lived command (the server build) as a registered
// child and waits for it.
func (r *registry) runTool(name, dir, bin string, args ...string) error {
	c, err := r.start(name, dir, bin, args)
	if err != nil {
		return err
	}
	<-c.done
	r.stop(c)
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("%s failed: %s\n%s", name, c.cmd.ProcessState, tail(c.log))
	}
	return nil
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return "127.0.0.1:" + strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// waitReady dials each address until it accepts, failing early if the child
// exits.
func waitReady(c *child, addrs ...string) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, a := range addrs {
		for {
			nc, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				nc.Close()
				break
			}
			select {
			case <-c.done:
				return fmt.Errorf("server exited before accepting on %s:\n%s", a, tail(c.log))
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("server not accepting on %s: %w", a, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}
