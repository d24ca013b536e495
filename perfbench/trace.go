package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/hashtable"
	"pamakv/internal/kv"
	"pamakv/internal/obs"
	"pamakv/internal/penalty"
	"pamakv/internal/proto"
	"pamakv/internal/server"
	"pamakv/internal/shard"
	"pamakv/internal/sim"
	"pamakv/internal/workload"
)

// The traced run drives the same stream through the layers in this process,
// recording a span around every call into a layer's public functions. It
// never runs during a measured run.

// Sizes of the traced stages. Calls too short for the clock are timed in
// batches of batchCalls; one span then covers the batch.
const (
	batchCalls   = 256
	microCalls   = 200_000 // calls per batched layer
	engineOps    = 200_000 // stream ops through the traced engine
	encodeBudget = 32 << 20
	stackOps     = 10_000 // depth-1 requests per in-process server stage
	overheadRuns = 10     // alternating traced/untraced chunks
	clusterWarm  = 50_000 // warm-up cap of the in-process cluster
)

// span is one timed interval; a request's spans share req, and a child
// names its parent's id.
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end int64 // ns since the tracer's base
	calls      int32 // layer calls the span covers
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
	// on gates recording; cur and curReq are the span and request id of
	// the request in flight on the traced connection, which the store
	// decorators make their parent.
	on          atomic.Bool
	cur, curReq atomic.Int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) record(name string, parent, req, start, end int64, calls int) {
	t.add(span{name: name, id: t.ids.Add(1), parent: parent, req: req, start: start, end: end, calls: int32(calls)})
}

// perCall is the mean duration per layer call (ns) of the named spans.
func (t *tracer) perCall(name string) float64 {
	var d, n int64
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
			n += int64(s.calls)
		}
	}
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// selfTime is the mean self time (ns) of the named spans whose children
// keep accepts: each span's duration minus its children's durations.
func (t *tracer) selfTime(name string, keep func(children []span) bool) float64 {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var total, n int64
	for _, s := range t.spans {
		if s.name != name || !keep(kids[s.id]) {
			continue
		}
		self := s.end - s.start
		for _, c := range kids[s.id] {
			self -= c.end - c.start
		}
		total += self
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// write saves the spans as CSV.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,req,start_ns,end_ns,calls")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.req, s.start, s.end, s.calls)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batched times fn over calls in batches, one span per batch.
func (t *tracer) batched(name string, calls int, fn func(i int)) {
	for i := 0; i < calls; {
		n := min(batchCalls, calls-i)
		start := t.now()
		for j := 0; j < n; j++ {
			fn(i + j)
		}
		t.record(name, 0, 0, start, t.now(), n)
		i += n
	}
}

// tracedStore is a server.Store decorator that records a span around every
// data-path call, as a child of the traced request in flight.
type tracedStore struct {
	server.Store
	tr   *tracer
	name string
}

func (s *tracedStore) done(start int64) {
	s.tr.record(s.name, s.tr.cur.Load(), s.tr.curReq.Load(), start, s.tr.now(), 1)
}

func (s *tracedStore) Get(key string, sizeHint int, penHint float64, buf []byte) ([]byte, uint32, bool) {
	if !s.tr.on.Load() {
		return s.Store.Get(key, sizeHint, penHint, buf)
	}
	t := s.tr.now()
	defer s.done(t)
	return s.Store.Get(key, sizeHint, penHint, buf)
}

func (s *tracedStore) GetWithCAS(key string, buf []byte) ([]byte, uint32, uint64, bool) {
	if !s.tr.on.Load() {
		return s.Store.GetWithCAS(key, buf)
	}
	t := s.tr.now()
	defer s.done(t)
	return s.Store.GetWithCAS(key, buf)
}

func (s *tracedStore) Set(key string, size int, pen float64, flags uint32, value []byte) error {
	if !s.tr.on.Load() {
		return s.Store.Set(key, size, pen, flags, value)
	}
	t := s.tr.now()
	defer s.done(t)
	return s.Store.Set(key, size, pen, flags, value)
}

func (s *tracedStore) SetMode(key string, mode cache.SetMode, cas uint64, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	if !s.tr.on.Load() {
		return s.Store.SetMode(key, mode, cas, size, pen, flags, expireAt, value)
	}
	t := s.tr.now()
	defer s.done(t)
	return s.Store.SetMode(key, mode, cas, size, pen, flags, expireAt, value)
}

func (s *tracedStore) Delete(key string) bool {
	if !s.tr.on.Load() {
		return s.Store.Delete(key)
	}
	t := s.tr.now()
	defer s.done(t)
	return s.Store.Delete(key)
}

// engineConfig is the engine configuration pama-server builds from its
// flag defaults and -cache.
func engineConfig(cacheMiB int64) cache.Config {
	return cache.Config{CacheBytes: cacheMiB << 20, StoreValues: true, WindowLen: 100_000, AccessBuffer: 256}
}

func pamaPolicy() cache.Policy {
	p, _ := (sim.PolicySpec{Kind: "pama"}).Build()
	return p
}

func newBackend() *backend.Store {
	return backend.NewRealTime(penalty.Default(), workload.ETC().SizeOf, 0)
}

// serverOptions mirrors pama-server's flag defaults.
func serverOptions(be *backend.Store) server.Options {
	return server.Options{
		Backend:      be,
		ReadTimeout:  5 * time.Minute,
		WriteTimeout: 30 * time.Second,
		MaxConns:     1024,
		MaxPipeline:  server.DefaultMaxPipeline,
		DrainTimeout: server.DefaultDrainTimeout,
	}
}

// tracedUnits are the per-layer metrics the traced run measures.
var tracedUnits = map[string]string{
	"proto.parse_ns":       "ns",
	"proto.resp_ns":        "ns",
	"hashtable.get_ns":     "ns",
	"cache.get_hit_ns":     "ns",
	"cache.get_miss_ns":    "ns",
	"cache.set_ns":         "ns",
	"shard.get_hit_ns_1p":  "ns",
	"shard.get_hit_ns_2p":  "ns",
	"store.call_ns":        "ns",
	"backend.fetch_ns":     "ns",
	"server.self_us":       "us",
	"cluster.forward_us":   "us",
	"trace.overhead_ratio": "ratio",
}

// traceRun runs every traced stage and returns the traced per-layer
// metrics.
func traceRun(s spec, st *stream) (map[string]metric, error) {
	tr := newTracer()
	ops := append(append([]op(nil), st.open...), st.closed...)
	out := map[string]metric{}

	if err := traceProto(tr, st, ops); err != nil {
		return nil, err
	}
	traceHashtable(tr, st, ops)
	if err := traceEngine(tr, s, st, ops); err != nil {
		return nil, err
	}
	if err := traceShards(tr, s, st, ops); err != nil {
		return nil, err
	}
	ratio, err := traceServer(tr, s, st)
	if err != nil {
		return nil, err
	}
	cl, err := traceCluster(tr, s, st)
	if err != nil {
		return nil, err
	}
	respNs := tr.perCall("proto.resp")
	// A request's self time less the client's reply parsing, which runs
	// inside the request span but cannot be split from waiting for the
	// reply; its per-reply cost is proto.resp_ns.
	clientSelf := func(name string, keep func([]span) bool) float64 {
		return (tr.selfTime(name, keep) - respNs) / 1e3
	}
	all := func([]span) bool { return true }
	forwarded := func(kids []span) bool {
		for _, k := range kids {
			if k.name == "storeB" {
				return true
			}
		}
		return false
	}
	for name, v := range map[string]float64{
		"proto.parse_ns":       tr.perCall("proto.parse"),
		"proto.resp_ns":        respNs,
		"hashtable.get_ns":     tr.perCall("hashtable.get"),
		"cache.get_hit_ns":     tr.perCall("cache.get_hit"),
		"cache.get_miss_ns":    tr.perCall("cache.get_miss"),
		"cache.set_ns":         tr.perCall("cache.set"),
		"shard.get_hit_ns_1p":  tr.perCall("shard.get_hit_1p"),
		"shard.get_hit_ns_2p":  tr.perCall("shard.get_hit_2p"),
		"store.call_ns":        tr.perCall("store"),
		"backend.fetch_ns":     tr.perCall("backend.fetch"),
		"server.self_us":       clientSelf("request", all),
		"cluster.forward_us":   clientSelf("cluster.request", forwarded),
		"trace.overhead_ratio": ratio,
	} {
		out[name] = metric{v, tracedUnits[name]}
	}
	if s.nodes == 1 {
		// The workload runs no cluster; its cluster counters come from
		// the traced run's in-process two-node cluster instead.
		for k, v := range cl {
			out[k] = v
		}
	}
	path := filepath.Join(".bench_build", "traces", s.name+".spans.csv")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("trace %d spans written to %s\n", len(tr.spans), path)
	return out, nil
}

// encodeOps renders up to encodeBudget bytes of requests and of the replies
// the server owes them.
func encodeOps(st *stream, ops []op) (reqs, resps []byte, n int) {
	var rb, pb bytes.Buffer
	c := &client{w: bufio.NewWriter(&rb), keys: st.keys}
	var val []byte
	for _, o := range ops {
		if rb.Len()+pb.Len() > encodeBudget {
			break
		}
		c.send(o)
		k := &st.keys[o.key]
		switch o.kind {
		case opGet:
			val = synthInto(val, k.hash, k.size)
			pb.Write(proto.AppendEnd(proto.AppendValue(nil, k.text, 0, val)))
		case opSet:
			pb.WriteString("STORED\r\n")
		default:
			pb.WriteString("DELETED\r\n")
		}
		n++
	}
	c.w.Flush()
	return rb.Bytes(), pb.Bytes(), n
}

// traceProto times the server's request parser and the load generator's
// reply parser over the workload's encoded traffic.
func traceProto(tr *tracer, st *stream, ops []op) error {
	reqs, resps, n := encodeOps(st, ops)
	if n == 0 {
		return fmt.Errorf("no ops to encode")
	}
	for done := 0; done < microCalls; done += n {
		p := proto.NewParser(bufio.NewReaderSize(bytes.NewReader(reqs), 1<<16))
		var perr error
		tr.batched("proto.parse", n, func(int) {
			if _, err := p.ReadCommand(); err != nil && perr == nil {
				perr = err
			}
		})
		p.Close()
		rr := proto.NewRespReader(bufio.NewReaderSize(bytes.NewReader(resps), 1<<16))
		tr.batched("proto.resp", n, func(int) {
			if _, err := rr.Next(); err != nil && perr == nil {
				perr = err
			}
		})
		if perr != nil {
			return fmt.Errorf("parsing encoded traffic: %w", perr)
		}
	}
	return nil
}

// traceHashtable times index lookups of the stream's hot keys.
func traceHashtable(tr *tracer, st *stream, ops []op) {
	t := hashtable.New(st.hot)
	for i := 0; i < st.hot; i++ {
		t.Put(&kv.Item{Key: st.keys[i].text, Hash: st.keys[i].hash})
	}
	var hot []int32
	for _, o := range ops {
		if int(o.key) < st.hot {
			hot = append(hot, o.key)
		}
	}
	if len(hot) == 0 {
		return
	}
	tr.batched("hashtable.get", microCalls, func(i int) {
		k := &st.keys[hot[i%len(hot)]]
		sink = t.Get(k.hash, k.text)
	})
}

// sink keeps timed lookups from being optimised away.
var sink *kv.Item

// traceEngine drives one engine, configured as one of the server's shards,
// with the stream ops that route to that shard, as the server's read-through
// path would: GET, and on a miss a backend fetch and a fill. The warm-up
// prefix runs untraced, then the first engineOps measured ops traced.
func traceEngine(tr *tracer, s spec, st *stream, ops []op) error {
	shards := shardCount()
	c, err := cache.New(engineConfig(s.cacheMiB/int64(shards)), pamaPolicy())
	if err != nil {
		return err
	}
	be := newBackend()
	mask := uint64(shards - 1)
	var buf, val []byte
	apply := func(o op, traced bool) error {
		k := &st.keys[o.key]
		if (k.hash>>48)&mask != 0 {
			return nil
		}
		t0 := tr.now()
		switch o.kind {
		case opGet:
			v, _, hit := c.Get(k.text, 0, 0, buf[:0])
			buf = v[:0]
			t1 := tr.now()
			if hit {
				if traced {
					tr.record("cache.get_hit", 0, 0, t0, t1, 1)
				}
				return nil
			}
			size, pen, body, err := be.FetchSharedErr(k.text, true)
			if err != nil {
				return err
			}
			t2 := tr.now()
			err = c.Set(k.text, size+len(k.text)+itemOverhead, pen, 0, body)
			t3 := tr.now()
			if traced {
				tr.record("cache.get_miss", 0, 0, t0, t1, 1)
				tr.record("backend.fetch", 0, 0, t1, t2, 1)
				tr.record("cache.set", 0, 0, t2, t3, 1)
			}
			return err
		case opSet:
			val = synthInto(val, k.hash, k.size)
			err := c.Set(k.text, k.size+len(k.text)+itemOverhead, be.Penalty(k.text, k.size), 0, val)
			if traced {
				tr.record("cache.set", 0, 0, t0, tr.now(), 1)
			}
			return err
		default:
			c.Delete(k.text)
		}
		return nil
	}
	var prefix []op
	if s.prefill {
		prefix = st.prefillOps()
	}
	for _, o := range append(prefix, st.warmup...) {
		if err := apply(o, false); err != nil {
			return err
		}
	}
	for _, o := range ops[:min(len(ops), engineOps)] {
		if err := apply(o, true); err != nil {
			return err
		}
	}
	return nil
}

// shardCount is pama-server's default -shards: the core count rounded up
// to a power of two.
func shardCount() int {
	n := 1
	for n < runtime.NumCPU() {
		n <<= 1
	}
	return n
}

// traceShards times GET hits through a shard group at the server's shard
// count, from one goroutine and then from two at once.
func traceShards(tr *tracer, s spec, st *stream, ops []op) error {
	g, err := shard.New(engineConfig(s.cacheMiB), shardCount(), pamaPolicy)
	if err != nil {
		return err
	}
	g.StartMaintainers(0)
	defer g.StopMaintainers()
	var val []byte
	seen := make(map[int32]bool)
	var resident []int32
	for _, o := range ops {
		if o.kind != opGet || seen[o.key] {
			continue
		}
		seen[o.key] = true
		k := &st.keys[o.key]
		val = synthInto(val, k.hash, k.size)
		if err := g.Set(k.text, k.size+len(k.text)+itemOverhead, 0, 0, val); err != nil {
			return err
		}
	}
	for _, o := range ops {
		if o.kind == opGet && g.Contains(st.keys[o.key].text) {
			resident = append(resident, o.key)
		}
	}
	if len(resident) == 0 {
		return fmt.Errorf("shard stage: no resident keys")
	}
	get := func(buf []byte, i int) []byte {
		v, _, _ := g.Get(st.keys[resident[i%len(resident)]].text, 0, 0, buf[:0])
		return v
	}
	var b1 []byte
	tr.batched("shard.get_hit_1p", microCalls, func(i int) { b1 = get(b1, i) })
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b []byte
			tr.batched("shard.get_hit_2p", microCalls, func(i int) { b = get(b, 2*i+w) })
		}(w)
	}
	wg.Wait()
	return nil
}

// inProcess is a pama-server stack built in this process.
type inProcess struct {
	srv   *server.Server
	group *shard.Group
	peers *cluster.Peers
	addr  string
}

func (p *inProcess) close() {
	p.srv.Shutdown()
	if p.peers != nil {
		p.peers.Close()
	}
	p.group.StopMaintainers()
}

// startInProcess builds a server over a traced shard group on ln.
func startInProcess(tr *tracer, name string, s spec, ln net.Listener, peers *cluster.Peers) (*inProcess, error) {
	g, err := shard.New(engineConfig(s.cacheMiB), shardCount(), pamaPolicy)
	if err != nil {
		return nil, err
	}
	g.StartMaintainers(0)
	opts := serverOptions(newBackend())
	if peers != nil {
		opts.Cluster = peers
		opts.HotCacheBytes = cluster.DefaultHotCacheBytes
		opts.HotCacheTTL = cluster.DefaultHotCacheTTL
	}
	srv := server.New(&tracedStore{Store: g, tr: tr, name: name}, opts)
	go srv.Serve(ln)
	return &inProcess{srv: srv, group: g, peers: peers, addr: ln.Addr().String()}, nil
}

// warm runs the untimed prefix through addr with the workload's shape.
func warm(s spec, st *stream, addr string, limit int) error {
	cls, err := dialAll(s, addr, st.keys)
	if err != nil {
		return err
	}
	defer closeAll(cls)
	var prefix []op
	if s.prefill {
		prefix = st.prefillOps()
	}
	prefix = append(prefix, st.warmup[:min(limit, len(st.warmup))]...)
	r, err := runClosed(cls, prefix, s.depth)
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("warm-up: %d wrong replies; first: %s", r.failed, r.firstFail)
	}
	return err
}

// tracedRequests sends ops one at a time on c, each inside a request span
// named name, with the client's encode-and-write as a child span.
func tracedRequests(tr *tracer, c *client, name string, ops []op) error {
	c.nc.SetReadDeadline(time.Now().Add(replyTimeout))
	for _, o := range ops {
		id := tr.ids.Add(1)
		req := tr.curReq.Add(1)
		tr.cur.Store(id)
		start := tr.now()
		c.send(o)
		if err := c.w.Flush(); err != nil {
			return err
		}
		tr.record("client.write", id, req, start, tr.now(), 1)
		if err := c.recv(o); err != nil {
			return err
		}
		tr.add(span{name: name, id: id, req: req, start: start, end: tr.now(), calls: 1})
	}
	if c.failed > 0 {
		return fmt.Errorf("traced requests: %d wrong replies; first: %s", c.failed, c.firstBad)
	}
	return nil
}

// traceServer runs the stream through an in-process server over a traced
// store, one request in flight, and returns the tracing overhead: the
// untraced over the traced request rate, from alternating chunks.
func traceServer(tr *tracer, s spec, st *stream) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	p, err := startInProcess(tr, "store", s, ln, nil)
	if err != nil {
		ln.Close()
		return 0, err
	}
	defer p.close()
	if err := warm(s, st, p.addr, len(st.warmup)); err != nil {
		return 0, err
	}
	c, err := dial(p.addr, st.keys)
	if err != nil {
		return 0, err
	}
	defer c.close()
	ops := st.closed[:min(2*stackOps, len(st.closed))]
	chunk := max(1, len(ops)/overheadRuns)
	var on, off time.Duration
	var nOn, nOff int
	for i := 0; i < len(ops); i += chunk {
		part := ops[i:min(i+chunk, len(ops))]
		traced := (i/chunk)%2 == 0
		tr.on.Store(traced)
		t0 := time.Now()
		if traced {
			err = tracedRequests(tr, c, "request", part)
		} else {
			_, err = c.runBatches(part, 1, t0)
			if err == nil && c.failed > 0 {
				err = fmt.Errorf("untraced requests: %d wrong replies; first: %s", c.failed, c.firstBad)
			}
		}
		if err != nil {
			return 0, err
		}
		if traced {
			on += time.Since(t0)
			nOn += len(part)
		} else {
			off += time.Since(t0)
			nOff += len(part)
		}
	}
	tr.on.Store(false)
	if nOn == 0 || nOff == 0 {
		return 0, fmt.Errorf("server stage: too few ops")
	}
	return (float64(nOff) / off.Seconds()) / (float64(nOn) / on.Seconds()), nil
}

// traceCluster runs the stream through an in-process two-node cluster,
// every request to node A, and returns A's cluster counters over the traced
// requests.
func traceCluster(tr *tracer, s spec, st *stream) (map[string]metric, error) {
	var lns []net.Listener
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	var ps []*inProcess
	defer func() {
		for _, p := range ps {
			p.close()
		}
	}()
	for i, name := range []string{"storeA", "storeB"} {
		peers, err := cluster.New(cluster.Config{
			Self: addrs[i], Members: addrs, Hash: "ring", VNodes: cluster.DefaultVNodes,
			Hedge: cluster.DefaultHedgePolicy(),
		})
		if err != nil {
			lns[i].Close()
			return nil, err
		}
		p, err := startInProcess(tr, name, s, lns[i], peers)
		if err != nil {
			peers.Close()
			lns[i].Close()
			return nil, err
		}
		ps = append(ps, p)
	}
	a := ps[0]
	if err := warm(s, st, a.addr, clusterWarm); err != nil {
		return nil, err
	}
	c, err := dial(a.addr, st.keys)
	if err != nil {
		return nil, err
	}
	defer c.close()
	ops := st.closed[:min(stackOps, len(st.closed))]
	st0, hc0 := a.srv.Stats(), hotStats(a.srv)
	lat0 := a.peers.Snapshots()[addrs[1]].Latency
	tr.on.Store(true)
	err = tracedRequests(tr, c, "cluster.request", ops)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	st1, hc1 := a.srv.Stats(), hotStats(a.srv)
	lat, err := a.peers.Snapshots()[addrs[1]].Latency.Delta(lat0)
	if err != nil {
		return nil, err
	}
	kop := float64(len(ops)) / 1000
	hits, misses := float64(hc1.Hits-hc0.Hits), float64(hc1.Misses-hc0.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	return map[string]metric{
		"cluster.forwards_per_kop":    {float64(st1.PeerForwards-st0.PeerForwards) / kop, "count"},
		"cluster.hot_cache_hit_ratio": {ratio, "ratio"},
		"cluster.peer_p50_us":         {quantile(histBuckets(lat), 0.5) * 1e6, "us"},
	}, nil
}

func hotStats(s *server.Server) cluster.HotCacheStats {
	h, _ := s.HotCacheStats()
	return h
}

// histBuckets turns a histogram snapshot into cumulative buckets.
func histBuckets(s obs.HistSnapshot) []bucket {
	out := make([]bucket, len(s.Buckets))
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		out[i] = bucket{s.UpperBound(i), float64(cum)}
	}
	return out
}
