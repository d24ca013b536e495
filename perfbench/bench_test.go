package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var startedRE = regexp.MustCompile(`started pama-server pid=(\d+) addr=(\S+) admin=(\S+)`)

// TestNothingOutlivesTheBenchmark runs the benchmark binary to completion,
// interrupts it mid-workload with SIGINT and SIGTERM, and checks each time
// that every server it started is gone, that the servers' ports are free,
// and that its temporary directory was removed.
func TestNothingOutlivesTheBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name     string
		workload string
		signal   syscall.Signal // 0 lets the run finish
		// The signal goes out wait after the after-th server started.
		after int
		wait  time.Duration
		exit  int
	}{
		{"normal end", "hot-get", 0, 0, 0, 0},
		// The sixth server is node B of the last set-up: the signal
		// lands in the measured phases.
		{"SIGINT mid-workload", "forward-hop", syscall.SIGINT, 6, 1500 * time.Millisecond, 130},
		{"SIGTERM mid-workload", "etc-pressure", syscall.SIGTERM, 1, 2 * time.Second, 143},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runsBefore := runDirs(t, root)
			cmd := exec.Command(bin, "-workload", tc.workload, "-seed", "3", "-seconds", "2")
			cmd.Dir = root
			var stdout strings.Builder
			cmd.Stdout = &stdout
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			type server struct {
				pid         int
				addr, admin string
			}
			var servers []server
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				m := startedRE.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				pid, _ := strconv.Atoi(m[1])
				servers = append(servers, server{pid, m[2], m[3]})
				if tc.signal != 0 && len(servers) == tc.after {
					time.Sleep(tc.wait)
					cmd.Process.Signal(tc.signal)
				}
			}
			err = cmd.Wait()
			code := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.exit {
				t.Errorf("exit code %d, want %d", code, tc.exit)
			}
			if len(servers) == 0 {
				t.Fatal("the benchmark reported no server")
			}
			last := lastLine(stdout.String())
			if tc.signal == 0 {
				var res result
				if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct {
					t.Errorf("last line is not a correct result: %q", last)
				}
			} else if strings.HasPrefix(last, "{") {
				t.Errorf("an interrupted run printed a result: %q", last)
			}
			for _, s := range servers {
				if err := syscall.Kill(s.pid, 0); !errors.Is(err, syscall.ESRCH) {
					t.Errorf("server pid %d still exists (kill 0: %v)", s.pid, err)
				}
				for _, a := range []string{s.addr, s.admin} {
					ln, err := net.Listen("tcp", a)
					if err != nil {
						t.Errorf("port %s still taken: %v", a, err)
						continue
					}
					ln.Close()
				}
			}
			for d := range runDirs(t, root) {
				if !runsBefore[d] {
					t.Errorf("temporary directory %s left behind", d)
				}
			}
		})
	}
}

func runDirs(t *testing.T, root string) map[string]bool {
	t.Helper()
	ms, err := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range ms {
		out[m] = true
	}
	return out
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// TestMetricNamesMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the benchmark prints in step: same names, same units, same workloads.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, listed []named, got map[string]metric) {
		want := map[string]string{}
		for _, n := range listed {
			want[n.Name] = n.Unit
		}
		for name, m := range got {
			if u, ok := want[name]; !ok {
				t.Errorf("%s metric %q is not in BENCHMARK.json", what, name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", what, name, m.Unit, u)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("BENCHMARK.json lists %s metric %q, the benchmark does not report it", what, name)
			}
		}
	}
	m := &measured{}
	check("end-to-end", bj.EndToEnd, endToEnd(m))
	layers := layerCounters(spec{nodes: 2}, m)
	for name, unit := range tracedUnits {
		layers[name] = metric{Unit: unit}
	}
	check("per-layer", bj.PerLayer, layers)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, s := range specs {
		have = append(have, s.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
}
