package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"pamakv/internal/backend"
)

// lateBound is the largest open-loop send lateness (p99 per window, median
// over the windows) a valid run may have; beyond it the numbers measure the
// generator, not the server. Normal runs stay under 2 ms; a host that
// steals a fifth of the CPU pushes hot-get to 4 ms.
const lateBound = 10 * time.Millisecond

// Latency quantiles and throughput are computed over equal-time windows of
// a phase and reported as the median over the windows, so a burst of load
// from outside the benchmark moves a few windows, not the run's figure. A
// latency window holds at least minSamples samples, so its p99 has ten
// beyond it.
const (
	maxWindows = 20
	minSamples = 1000
)

// stealFloor is the share of the host's CPU time a hypervisor may steal in a
// round without the round being set aside. The windowed metrics use every
// round under it, and at least the least-stolen half of the rounds: on a
// shared virtual machine the steal comes in bursts of seconds that cut the
// server's speed by a fifth, and they would otherwise decide the spread
// between runs. Counters (hit ratio, penalty), peak RSS and the reply
// checks cover every round.
const stealFloor = 0.01

// node is one running pama-server.
type node struct {
	proc        *child
	addr, admin string
}

// measured is everything one measured run observed.
type measured struct {
	setups []time.Duration
	nodes  []node
	open   openResult // per op of the whole open-loop phase
	rounds []round
	// before and after scrape every node's /metrics around the measured
	// rounds.
	before, after nodes
	hwm           int64
	lateP99       float64 // ns, median over windows of the p99
	openOps       []op
	openDue       []int64
	gets, sets    int
	dels          int
	attempted     int
	failed        int
	firstFail     string
	reconcileErr  error
}

// round is one open-loop round and the closed-loop round after it.
type round struct {
	openLo, openHi int // the round's ops in the open-loop stream
	closed         closedResult
	closedOps      int
	// cpu is all servers' CPU time in the closed-loop part: with the
	// servers saturated it is work per op, where in the open loop it
	// would also count their idle spinning between requests.
	cpu   time.Duration
	steal float64 // share of the host's CPU time stolen
	kept  bool
}

func (m *measured) correct() bool {
	return m.failed == 0 && m.reconcileErr == nil && m.lateP99 <= float64(lateBound)
}

func (m *measured) problems() []string {
	var p []string
	if m.failed > 0 {
		p = append(p, fmt.Sprintf("%d wrong or missing replies; first: %s", m.failed, m.firstFail))
	}
	if m.reconcileErr != nil {
		p = append(p, m.reconcileErr.Error())
	}
	if m.lateP99 > float64(lateBound) {
		p = append(p, fmt.Sprintf("invalid run: open-loop send lateness p99 %.0f us exceeds %v", m.lateP99/1e3, lateBound))
	}
	return p
}

// startNodes launches the workload's servers and waits until each accepts
// on its data and admin ports.
func startNodes(reg *registry, bin string, s spec) ([]node, error) {
	ns := make([]node, s.nodes)
	for i := range ns {
		var err error
		if ns[i].addr, err = freePort(); err != nil {
			return nil, err
		}
		if ns[i].admin, err = freePort(); err != nil {
			return nil, err
		}
	}
	var peers []string
	for _, n := range ns {
		peers = append(peers, n.addr)
	}
	for i := range ns {
		args := append([]string{"-addr", ns[i].addr, "-admin-addr", ns[i].admin}, s.serverFlags()...)
		if s.nodes > 1 {
			args = append(args, "-peers", strings.Join(peers, ","), "-self", ns[i].addr)
		}
		c, err := reg.start("pama-server-"+strconv.Itoa(i), "", bin, args)
		if err != nil {
			return ns, err
		}
		ns[i].proc = c
		fmt.Fprintf(os.Stderr, "perfbench: started pama-server pid=%d addr=%s admin=%s\n", c.cmd.Process.Pid, ns[i].addr, ns[i].admin)
	}
	for _, n := range ns {
		if err := waitReady(n.proc, n.addr, n.admin); err != nil {
			return ns, err
		}
	}
	return ns, nil
}

func stopNodes(reg *registry, ns []node) {
	for _, n := range ns {
		if n.proc != nil {
			reg.stop(n.proc)
		}
	}
}

func dialAll(s spec, addr string, keys []key) ([]*client, error) {
	cls := make([]*client, 0, s.conns)
	for i := 0; i < s.conns; i++ {
		c, err := dial(addr, keys)
		if err != nil {
			closeAll(cls)
			return nil, err
		}
		cls = append(cls, c)
	}
	return cls, nil
}

func closeAll(cls []*client) {
	for _, c := range cls {
		c.close()
	}
}

// setUp starts fresh servers and runs the untimed prefix: the prefill, if
// any, then the warm-up ops. It returns the time from exec to the end of the
// prefix.
func setUp(reg *registry, bin string, s spec, st *stream) ([]node, []*client, time.Duration, error) {
	t0 := time.Now()
	ns, err := startNodes(reg, bin, s)
	if err != nil {
		stopNodes(reg, ns)
		return nil, nil, 0, err
	}
	cls, err := dialAll(s, ns[0].addr, st.keys)
	if err != nil {
		stopNodes(reg, ns)
		return nil, nil, 0, err
	}
	var prefix []op
	if s.prefill {
		prefix = st.prefillOps()
	}
	prefix = append(prefix, st.warmup...)
	r, err := runClosed(cls, prefix, s.depth)
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("warm-up: %d wrong replies; first: %s", r.failed, r.firstFail)
	}
	if err != nil {
		closeAll(cls)
		stopNodes(reg, ns)
		return nil, nil, 0, err
	}
	return ns, cls, time.Since(t0), nil
}

// measure sets the workload up `setups` times on fresh servers, keeps the
// last set-up, and runs the measured rounds on it: each an open-loop round
// then a closed-loop round.
func measure(reg *registry, bin string, s spec, st *stream, setups int) (*measured, error) {
	// The generator allocates little per round; with its collector off a
	// GC cycle cannot take a core from the server mid-round.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := &measured{openOps: st.open, openDue: st.openDue}
	var cls []*client
	for i := 0; i < setups; i++ {
		ns, c, d, err := setUp(reg, bin, s, st)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d)
		if i < setups-1 {
			closeAll(c)
			stopNodes(reg, ns)
			continue
		}
		m.nodes, cls = ns, c
	}
	defer closeAll(cls)

	var err error
	if m.before, err = m.scrape(); err != nil {
		return nil, err
	}
	m.open = openResult{lat: make([]int64, len(st.open)), late: make([]int64, len(st.open))}
	for r := 0; r < st.rounds; r++ {
		steal0, err := hostSteal()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		lo, hi, due := st.openRound(r)
		o, err := runOpenPhase(cls, st.open[lo:hi], due)
		if err != nil {
			return nil, fmt.Errorf("open-loop round %d: %w", r, err)
		}
		copy(m.open.lat[lo:], o.lat)
		copy(m.open.late[lo:], o.late)
		m.failed += o.failed
		m.noteFailure(o.firstFail)
		clo, chi := st.closedRound(r)
		cpu0, err := m.serverCPU()
		if err != nil {
			return nil, err
		}
		c, err := runClosed(cls, st.closed[clo:chi], s.depth)
		if err != nil {
			return nil, fmt.Errorf("closed-loop round %d: %w", r, err)
		}
		m.failed += c.failed
		m.noteFailure(c.firstFail)
		wall := time.Since(t0)
		cpu1, err := m.serverCPU()
		if err != nil {
			return nil, err
		}
		steal1, err := hostSteal()
		if err != nil {
			return nil, err
		}
		m.rounds = append(m.rounds, round{
			openLo: lo, openHi: hi, closed: c, closedOps: chi - clo, cpu: cpu1 - cpu0,
			steal: float64(steal1-steal0) / float64(wall) / float64(runtime.NumCPU()),
		})
	}
	keepRounds(m.rounds)
	if m.after, err = m.scrape(); err != nil {
		return nil, err
	}
	for _, n := range m.nodes {
		h, err := procHWM(n.proc.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		m.hwm += h
	}

	g1, s1, d1 := counts(st.open)
	g2, s2, d2 := counts(st.closed)
	m.gets, m.sets, m.dels = g1+g2, s1+s2, d1+d2
	m.attempted = len(st.open) + len(st.closed)
	// Lateness is judged like the latencies it would distort: p99 per
	// window, median over the windows.
	m.lateP99 = medianOf(windowed(m.openWindows(m.open.late, nil), 0.99)) * 1e3
	m.reconcileErr = m.reconcile()
	return m, nil
}

// keepRounds marks the rounds the windowed metrics use: those whose steal
// is under stealFloor, and at least the least-stolen half.
func keepRounds(rs []round) {
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rs[idx[a]].steal < rs[idx[b]].steal })
	for rank, i := range idx {
		rs[i].kept = rank < (len(rs)+1)/2 || rs[i].steal <= stealFloor
	}
}

// hostSteal returns the CPU time the hypervisor has stolen from this host
// so far, summed over its CPUs (0 where the kernel reports none).
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, nil
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad /proc/stat: %w", err)
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

func (m *measured) noteFailure(f string) {
	if m.firstFail == "" {
		m.firstFail = f
	}
}

func (m *measured) scrape() (nodes, error) {
	out := make(nodes, len(m.nodes))
	for i, n := range m.nodes {
		s, err := readMetrics(n.admin)
		if err != nil {
			return nil, fmt.Errorf("reading %s/metrics: %w", n.admin, err)
		}
		out[i] = s
	}
	return out, nil
}

func (m *measured) serverCPU() (time.Duration, error) {
	var t time.Duration
	for _, n := range m.nodes {
		d, err := procCPU(n.proc.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += d
	}
	return t, nil
}

// delta is a counter's increase over the measured phases, summed over nodes.
func (m *measured) delta(name string) float64 {
	return m.after.sum(name) - m.before.sum(name)
}

// reconcile checks the servers' counters against the ops issued: every
// GET reached an engine (or, in a cluster, node A's hot cache or a forward
// to its owner), every SET and every read-through fill was stored, and no
// request was refused.
func (m *measured) reconcile() error {
	fills := m.delta("pamakv_backend_fetches_total")
	gets := m.delta("pamakv_gets_total")
	if len(m.nodes) > 1 {
		// Forwarded GETs of one key may share a peer request, so count
		// them at node A: its forwards minus the SETs it forwarded (SETs
		// not stored locally).
		a := func(name string) float64 { return m.after[0].sum(name) - m.before[0].sum(name) }
		setFwd := float64(m.sets) - (a("pamakv_sets_total") - a("pamakv_backend_fetches_total"))
		gets = a("pamakv_gets_total") + a("pamakv_hot_cache_hits_total") + a("pamakv_cluster_forwards_total") - setFwd
	}
	var errs []error
	check := func(what string, got, want float64) {
		if got != want {
			errs = append(errs, fmt.Errorf("counter mismatch: server counted %.0f %s, benchmark issued %.0f", got, what, want))
		}
	}
	check("GETs", gets, float64(m.gets))
	check("stores", m.delta("pamakv_sets_total"), float64(m.sets)+fills)
	check("DELETEs", m.delta("pamakv_deletes_total"), float64(m.dels))
	check("SERVER_ERRORs", m.delta("pamakv_server_errors_total"), 0)
	check("CLIENT_ERRORs", m.delta("pamakv_client_errors_total"), 0)
	check("backend failures", m.delta("pamakv_backend_failures_total"), 0)
	check("peer errors", m.delta("pamakv_cluster_peer_errors_total"), 0)
	return errors.Join(errs...)
}

// speed are the server's speed metrics: closed-loop throughput, the
// open-loop latency quantiles and CPU time per op. They are reported with
// the per-layer metrics, without a bound: on the shared 2-vCPU host the
// benchmark was built on they drifted by 20-50% over minutes with the
// host's load, more than any bound a regression gate can use.
func speed(m *measured) map[string]metric {
	gets, sets := m.openLatencies(opGet), m.openLatencies(opSet)
	return map[string]metric{
		"throughput_ops":       {m.closedRate(), "ops/s"},
		"server_cpu_us_per_op": {m.cpuPerOp(), "us/op"},
		"get_p50_us":           {medianOf(windowed(gets, 0.50)), "us"},
		"get_p99_us":           {medianOf(windowed(gets, 0.99)), "us"},
		"set_p50_us":           {medianOf(windowed(sets, 0.50)), "us"},
		"set_p99_us":           {medianOf(windowed(sets, 0.99)), "us"},
	}
}

// endToEnd computes the gated metrics a user of the server sees: what the
// cache achieves for the paper's objective, its memory and its set-up time.
func endToEnd(m *measured) map[string]metric {
	var setups []float64
	for _, d := range m.setups {
		setups = append(setups, d.Seconds())
	}
	return map[string]metric{
		"hit_ratio":               {m.delta("pamakv_hits_total") / m.delta("pamakv_gets_total"), "ratio"},
		"miss_penalty_ms_per_get": {m.delta("pamakv_backend_penalty_seconds_total") * 1e3 / float64(m.gets), "ms/get"},
		"server_rss_mib":          {float64(m.hwm) / (1 << 20), "MiB"},
		"setup_s":                 {medianOf(setups), "s"},
	}
}

// openLatencies splits the open-loop latencies (ns) of one op kind into
// equal-time windows of the schedule.
func (m *measured) openLatencies(kind uint8) [][]int64 {
	return m.openWindows(m.open.lat, func(o op) bool { return o.kind == kind })
}

// openWindows splits per-op values of the open-loop phase (those of ops
// that keep selects, or all) into equal-time windows of the kept rounds: as
// many per round as leave minSamples in each, at most maxWindows in all.
func (m *measured) openWindows(vals []int64, keep func(op) bool) [][]int64 {
	per := max(1, maxWindows/max(1, m.keptRounds()))
	var ws [][]int64
	for r, rd := range m.rounds {
		if !rd.kept {
			continue
		}
		n := 0
		for i := rd.openLo; i < rd.openHi; i++ {
			if keep == nil || keep(m.openOps[i]) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		k := max(1, min(per, n/minSamples))
		base := len(ws)
		ws = append(ws, make([][]int64, k)...)
		for i := rd.openLo; i < rd.openHi; i++ {
			if keep == nil || keep(m.openOps[i]) {
				w := int(int64(k) * (m.openDue[i] - int64(r)*roundLen) / roundLen)
				ws[base+w] = append(ws[base+w], vals[i])
			}
		}
	}
	return ws
}

// stealPct lists each round's stolen share of the host's CPU, in percent,
// starred when the round is set aside.
func (m *measured) stealPct() string {
	var b strings.Builder
	for i, rd := range m.rounds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.1f", rd.steal*100)
		if !rd.kept {
			b.WriteByte('*')
		}
	}
	return b.String()
}

func (m *measured) keptRounds() int {
	n := 0
	for _, rd := range m.rounds {
		if rd.kept {
			n++
		}
	}
	return n
}

// cpuPerOp is the servers' CPU time per op (µs) over the closed-loop parts
// of the kept rounds.
func (m *measured) cpuPerOp() float64 {
	var cpu time.Duration
	ops := 0
	for _, rd := range m.rounds {
		if rd.kept {
			cpu += rd.cpu
			ops += rd.closedOps
		}
	}
	return cpu.Seconds() * 1e6 / float64(ops)
}

// windowed returns one quantile (µs) per window.
func windowed(ws [][]int64, q float64) []float64 {
	out := make([]float64, 0, len(ws))
	for _, w := range ws {
		if len(w) > 0 {
			out = append(out, pct(w, q)/1e3)
		}
	}
	return out
}

// closedRate is the median completion rate over equal-time windows of the
// kept closed-loop rounds, each window ending before the first connection
// of its round finished.
func (m *measured) closedRate() float64 {
	var rates []float64
	per := max(1, maxWindows/max(1, m.keptRounds()))
	for _, rd := range m.rounds {
		if !rd.kept {
			continue
		}
		c := rd.closed
		end := int64(-1)
		for _, p := range c.prog {
			if len(p) > 0 && (end < 0 || p[len(p)-1].t < end) {
				end = p[len(p)-1].t
			}
		}
		if end <= 0 {
			continue
		}
		doneBy := func(t int64) int {
			n := 0
			for _, p := range c.prog {
				i := sort.Search(len(p), func(i int) bool { return p[i].t > t })
				if i > 0 {
					n += p[i-1].done
				}
			}
			return n
		}
		for w := 0; w < per; w++ {
			t0, t1 := end*int64(w)/int64(per), end*int64(w+1)/int64(per)
			rates = append(rates, float64(doneBy(t1)-doneBy(t0))/(float64(t1-t0)/1e9))
		}
	}
	return medianOf(rates)
}

// layerCounters computes the per-layer metrics read from the servers'
// counters over the measured phases.
func layerCounters(s spec, m *measured) map[string]metric {
	kop := float64(m.attempted) / 1000
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	req := deltaBuckets(m.after.hist("pamakv_request_seconds", `cmd="get"`), m.before.hist("pamakv_request_seconds", `cmd="get"`))
	fetch := deltaBuckets(m.after.hist("pamakv_backend_fetch_seconds", ""), m.before.hist("pamakv_backend_fetch_seconds", ""))
	out := speed(m)
	for k, v := range map[string]metric{
		"server.request_p50_us":       {quantile(req, 0.50) * 1e6, "us"},
		"server.request_p99_us":       {quantile(req, 0.99) * 1e6, "us"},
		"server.cmds_per_batch":       {ratio(m.delta("pamakv_batched_commands_total"), m.delta("pamakv_response_batches_total")), "count"},
		"cache.evictions_per_kop":     {m.delta("pamakv_evictions_total") / kop, "count"},
		"cache.ghost_hits_per_kop":    {m.delta("pamakv_ghost_hits_total") / kop, "count"},
		"core.migrations_per_kop":     {m.delta("pamakv_policy_migrations_total") / kop, "count"},
		"core.not_worth_it_per_kop":   {m.delta("pamakv_policy_not_worth_it_total") / kop, "count"},
		"core.same_class_per_kop":     {m.delta("pamakv_policy_same_class_total") / kop, "count"},
		"cache.holes_mib":             {m.after.sum("pamakv_holes_bytes_total") / (1 << 20), "MiB"},
		"backend.fetches_per_kop":     {m.delta("pamakv_backend_fetches_total") / kop, "count"},
		"backend.fetch_p50_us":        {quantile(fetch, 0.50) * 1e6, "us"},
		"accessbuf.records_per_drain": {ratio(m.delta("pamakv_accessbuf_drained_records_total"), m.delta("pamakv_accessbuf_drains_total")), "count"},
		"accessbuf.stale_refs":        {m.delta("pamakv_accessbuf_stale_refs_total"), "count"},
	} {
		out[k] = v
	}
	if s.nodes > 1 {
		peer := deltaBuckets(m.after.hist("pamakv_peer_request_seconds", ""), m.before.hist("pamakv_peer_request_seconds", ""))
		hh, hm := m.delta("pamakv_hot_cache_hits_total"), m.delta("pamakv_hot_cache_misses_total")
		out["cluster.forwards_per_kop"] = metric{m.delta("pamakv_cluster_forwards_total") / kop, "count"}
		out["cluster.hot_cache_hit_ratio"] = metric{ratio(hh, hh+hm), "ratio"}
		out["cluster.peer_p50_us"] = metric{quantile(peer, 0.50) * 1e6, "us"}
	}
	return out
}

// pct is the nearest-rank q-quantile of xs (which it sorts in place).
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// checkSynth proves that synthInto reproduces backend.Synthesize, the
// values the server's backend fills and the benchmark's SETs write.
func checkSynth() error {
	var buf []byte
	for i, size := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000, 4096, 100_003} {
		h := uint64(i)*0x9e3779b97f4a7c15 + 1
		buf = synthInto(buf, h, size)
		if !bytes.Equal(buf, backend.Synthesize(h, size)) {
			return fmt.Errorf("value generator disagrees with backend.Synthesize at size %d", size)
		}
	}
	return nil
}

// fingerprint identifies the host and build a result came from; results
// with different fingerprints are not comparable.
type fingerprint struct {
	CPU          string   `json:"cpu"`
	NProc        int      `json:"nproc"`
	BenchProcs   int      `json:"gomaxprocs_bench"`
	ServerProcs  int      `json:"gomaxprocs_server"`
	GoVersion    string   `json:"go"`
	Commit       string   `json:"commit"`
	SourceSHA256 string   `json:"source_sha256"`
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      int      `json:"seconds"`
	ServerFlags  []string `json:"server_flags"`
	Shape        string   `json:"shape"`
}

func hostFingerprint(root string, s spec, seed int64, seconds int) fingerprint {
	serverProcs := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		serverProcs = v
	}
	return fingerprint{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		BenchProcs:   runtime.GOMAXPROCS(0),
		ServerProcs:  serverProcs,
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
		Workload:     s.name,
		Seed:         seed,
		Seconds:      seconds,
		ServerFlags:  s.serverFlags(),
		Shape: fmt.Sprintf("%d node(s), %d conn(s) x depth %d, open %.0f ops/s",
			s.nodes, s.conns, s.depth, s.openRate),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory, if it has one.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes the server's Go sources (everything but the
// benchmark itself), identifying the code under test without git.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" || rel == "perfbench" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || rel == "go.mod" || rel == "go.sum" {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
