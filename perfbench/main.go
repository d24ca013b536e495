// Command perfbench is the repository benchmark. It builds cmd/pama-server
// from the checkout it runs in, starts it as a child process on loopback
// with every flag at its default except the workload's own, drives it from
// this process with a seeded stream, checks every reply, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: the end-to-end metrics, or with -trace 1 the per-layer ones.
//
// Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload etc-pressure --seed 1 --seconds 16 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runDeadline is the most a run may take before it tears itself down.
const runDeadline = 170 * time.Second

// benchProcs is the load generator's GOMAXPROCS. Open-loop senders sleep
// in nanosleep on locked threads, each holding a P while it sleeps; extra
// Ps keep the reply readers running meanwhile.
const benchProcs = 4

func main() {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: etc-pressure, hot-get, write-churn or forward-hop")
	seed := flag.Int64("seed", 1, "seed of the generated stream")
	seconds := flag.Int("seconds", 16, "measured length: seconds/2 rounds, each a 1 s open-loop phase and a closed-loop phase")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	s, err := specByName(*name)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fail(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}
	root, err := checkoutRoot()
	if err != nil {
		return fail(err)
	}
	reg, err := newRegistry(filepath.Join(root, ".bench_build"))
	if err != nil {
		return fail(err)
	}
	reg.abortOnSignal()
	defer reg.abortAfter(runDeadline).Stop()
	defer reg.cleanup()

	if err := checkSynth(); err != nil {
		return fail(err)
	}
	st, err := generate(s, *seed, *seconds)
	if err != nil {
		return fail(err)
	}
	bin := filepath.Join(reg.tmp, "pama-server")
	if err := reg.runTool("go-build", root, "go", "build", "-o", bin, "./cmd/pama-server"); err != nil {
		return fail(err)
	}
	fp, err := json.Marshal(hostFingerprint(root, s, *seed, *seconds))
	if err != nil {
		return fail(err)
	}
	fmt.Printf("fingerprint %s\n", fp)

	setups := 3
	if *trace == 1 {
		setups = 1 // the traced run reports no set-up time
	}
	m, err := measure(reg, bin, s, st, setups)
	if err != nil {
		return fail(err)
	}
	layers := layerCounters(s, m)
	out := result{Correct: m.correct(), Attempted: m.attempted, Failed: m.failed}
	if *trace == 0 {
		out.Metrics = endToEnd(m)
		printMetrics("layer", layers)
		printMetrics("metric", out.Metrics)
	} else {
		traced, err := traceRun(s, st)
		if err != nil {
			return fail(err)
		}
		for k, v := range traced {
			layers[k] = v
		}
		out.Metrics = layers
		printMetrics("layer", layers)
	}
	fmt.Printf("check attempted=%d failed=%d error_ratio=%.6g gets=%d sets=%d deletes=%d open_lateness_p99_us=%.1f (bound %v) counters_reconciled=%v accessbuf_lock_wait_ns=%.0f\n",
		m.attempted, m.failed, float64(m.failed)/float64(m.attempted), m.gets, m.sets, m.dels,
		m.lateP99/1e3, lateBound, m.reconcileErr == nil, m.delta("pamakv_accessbuf_lock_wait_ns_total"))
	fmt.Printf("rounds kept=%d/%d steal_pct=%s\n", m.keptRounds(), len(m.rounds), m.stealPct())
	for _, p := range m.problems() {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-28s %14.6g %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}

// checkoutRoot returns the working directory if it is the root of a pamakv
// source tree; the benchmark builds the server from there.
func checkoutRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module pamakv\n") {
		return "", errors.New("run from the root of the pamakv repository (no go.mod for module pamakv here)")
	}
	if _, err := os.Stat(filepath.Join(wd, "cmd", "pama-server")); err != nil {
		return "", fmt.Errorf("no server source: %w", err)
	}
	return wd, nil
}
