package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"pamakv/internal/kv"
	"pamakv/internal/proto"
	"pamakv/internal/workload"
)

// Operation kinds in a generated stream.
const (
	opGet uint8 = iota
	opSet
	opDelete
)

// itemOverhead mirrors the per-item header the server charges to a slab
// slot; keys whose item would not fit the largest slot are never generated,
// so no SET and no read-through fill can be refused.
const itemOverhead = 56

// spec describes one workload: the traffic mix, the server flags it runs
// with, and how its phases are sized.
type spec struct {
	name string
	// conns and depth give the closed-loop shape: connections × requests
	// in flight per connection (lockstep pipelined batches).
	conns, depth int
	// nodes is the number of pama-server processes; 2 runs a static
	// -peers cluster and every connection goes to the first node.
	nodes int
	// cacheMiB is the servers' -cache, and the in-process stacks' budget.
	cacheMiB int64
	// openRate is the open-loop offered rate (ops/s); closedRate is a
	// nominal closed-loop rate that only sizes the closed phase, so the
	// stream (and with it every count) depends on the seed and the run
	// length alone, never on how fast the server happens to be.
	openRate, closedRate float64
	// keys is the hot keyspace size; small restricts it to keys whose
	// backend value is at most 64 bytes.
	keys  int
	small bool
	// prefill SETs every hot key before the warm-up prefix, so the
	// keyspace is resident when measuring starts.
	prefill bool
	// warmup is the length of the untimed prefix of the stream.
	warmup int
	// Op shares; the remainder are GETs of hot keys. Cold GETs target
	// never-reused keys and miss into the read-through backend.
	coldFrac, setFrac, delFrac float64
}

// specs are the benchmark's workloads. Every one issues GETs, SETs and cold
// GETs, so every end-to-end metric has samples on every workload.
var specs = []spec{
	{
		name:  "etc-pressure",
		conns: 1, depth: 32, nodes: 1,
		cacheMiB: 64,
		openRate: 15_000, closedRate: 75_000,
		keys: 200_000, warmup: 120_000,
		coldFrac: 0.01, setFrac: 0.03, delFrac: 0.002,
	},
	{
		name:  "hot-get",
		conns: 2, depth: 32, nodes: 1,
		cacheMiB: 256,
		openRate: 50_000, closedRate: 600_000,
		keys: 4096, small: true, prefill: true, warmup: 50_000,
		coldFrac: 0.01, setFrac: 0.02,
	},
	{
		name:  "write-churn",
		conns: 1, depth: 32, nodes: 1,
		cacheMiB: 64,
		openRate: 20_000, closedRate: 80_000,
		keys: 200_000, warmup: 120_000,
		coldFrac: 0.01, setFrac: 0.5, delFrac: 0.002,
	},
	{
		name:  "forward-hop",
		conns: 2, depth: 16, nodes: 2,
		cacheMiB: 256,
		openRate: 15_000, closedRate: 100_000,
		keys: 4096, small: true, prefill: true, warmup: 50_000,
		coldFrac: 0.01, setFrac: 0.2,
	},
}

// serverFlags are the flags the workload's servers run with besides their
// addresses; every other flag keeps its default. Misses are counted, not
// slept (-penalty-scale 0), so latency is the server's CPU path and the
// penalty a separate count.
func (s spec) serverFlags() []string {
	return []string{"-cache", strconv.FormatInt(s.cacheMiB, 10), "-readthrough", "-penalty-scale", "0"}
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// key is one generated key with the backend's size for it.
type key struct {
	text string
	hash uint64
	size int
}

// op is one request of a stream: a kind and an index into the key table.
type op struct {
	kind uint8
	key  int32
}

// stream is a workload's pre-generated input: the key table and the ops of
// each phase, plus the open-loop schedule.
type stream struct {
	keys    []key
	hot     int // keys[:hot] are the hot keyspace; the rest are cold keys
	warmup  []op
	open    []op
	openDue []int64 // scheduled send time of open[i], ns on the rounds' clock
	closed  []op
	rounds  int
}

// openRound returns round r's open-loop ops and their schedule, in ns from
// the start of the round.
func (st *stream) openRound(r int) (lo, hi int, due []int64) {
	lo = sort.Search(len(st.openDue), func(i int) bool { return st.openDue[i] >= int64(r)*roundLen })
	hi = sort.Search(len(st.openDue), func(i int) bool { return st.openDue[i] >= int64(r+1)*roundLen })
	due = make([]int64, hi-lo)
	for i := range due {
		due[i] = st.openDue[lo+i] - int64(r)*roundLen
	}
	return lo, hi, due
}

// closedRound returns the bounds of round r's closed-loop ops.
func (st *stream) closedRound(r int) (lo, hi int) {
	return r * len(st.closed) / st.rounds, (r + 1) * len(st.closed) / st.rounds
}

// etcSizeOf is the backend's size function: pama-server's read-through
// backend sizes every key with the ETC workload's SizeOf.
var etcSizeOf = workload.ETC().SizeOf

// makeKey builds the key text for name, appending a suffix until the item
// fits the largest slab slot (and, for small keyspaces, a 64 B value).
func makeKey(name string, small bool) key {
	text := name
	for i := 0; ; i++ {
		h := kv.HashString(text)
		size := etcSizeOf(h)
		fits := size <= proto.MaxDataLen && size+len(text)+itemOverhead <= 1<<20
		if fits && (!small || size <= 64) {
			return key{text: text, hash: h, size: size}
		}
		text = name + "." + strconv.Itoa(i)
	}
}

// roundLen is the length of one open-loop round. A run alternates rounds of
// the open-loop and the closed-loop phase, seconds/2 of each, so that both
// phases sample the whole run: on a shared host the speed drifts over
// seconds, and two back-to-back phases would each see only half of it.
const roundLen = int64(time.Second)

// generate builds the stream for one seed: seconds/2 rounds, each of
// openRate open-loop ops over one second and closedRate closed-loop ops.
func generate(s spec, seed int64, seconds int) (*stream, error) {
	st := &stream{}
	if s.small {
		// A small keyspace is the first s.keys ids whose value is at
		// most 64 B; most ETC keys are, so this scans little.
		for id := 0; len(st.keys) < s.keys; id++ {
			k := makeKey("h"+strconv.Itoa(id), false)
			if k.size <= 64 {
				st.keys = append(st.keys, k)
			}
		}
	} else {
		st.keys = make([]key, s.keys)
		for id := range st.keys {
			st.keys[id] = makeKey("k"+strconv.Itoa(id), false)
		}
	}
	st.hot = len(st.keys)

	cfg := workload.ETC()
	cfg.Name = s.name
	cfg.Keys = uint64(s.keys)
	cfg.ColdFrac, cfg.SetFrac, cfg.DelFrac = s.coldFrac, s.setFrac, s.delFrac
	cfg.Seed = uint64(seed)
	gen, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	next := func(n int) ([]op, error) {
		ops := make([]op, n)
		for i := range ops {
			r, err := gen.Next()
			if err != nil {
				return nil, err
			}
			idx := int32(r.Key)
			if r.Key >= uint64(s.keys) {
				// A cold id: a key never requested before or after.
				idx = int32(len(st.keys))
				st.keys = append(st.keys, makeKey("c"+strconv.Itoa(len(st.keys)-st.hot), s.small))
			}
			switch r.Op {
			case kv.Set:
				ops[i] = op{opSet, idx}
			case kv.Delete:
				ops[i] = op{opDelete, idx}
			default:
				ops[i] = op{opGet, idx}
			}
		}
		return ops, nil
	}
	st.rounds = max(1, seconds/2)
	if st.warmup, err = next(s.warmup); err != nil {
		return nil, err
	}
	if st.open, err = next(int(s.openRate) * st.rounds); err != nil {
		return nil, err
	}
	if st.closed, err = next(int(s.closedRate) * st.rounds); err != nil {
		return nil, err
	}
	// Poisson arrivals at openRate, seeded like the ops, on one clock
	// across the rounds: round r sends the ops due in [r, r+1) seconds.
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e))
	st.openDue = make([]int64, len(st.open))
	t := 0.0
	for i := range st.openDue {
		t += rng.ExpFloat64() / s.openRate
		st.openDue[i] = min(int64(t*1e9), int64(st.rounds)*roundLen-1)
	}
	return st, nil
}

// prefillOps SETs every hot key once, in key order.
func (st *stream) prefillOps() []op {
	ops := make([]op, st.hot)
	for i := range ops {
		ops[i] = op{opSet, int32(i)}
	}
	return ops
}

// counts tallies the kinds of ops.
func counts(ops []op) (gets, sets, dels int) {
	for _, o := range ops {
		switch o.kind {
		case opGet:
			gets++
		case opSet:
			sets++
		default:
			dels++
		}
	}
	return
}

// synthInto writes the value the backend produces for (hash, size) into
// dst, reusing its capacity: the algorithm of backend.Synthesize, so
// checking a reply allocates nothing. checkSynth proves the two agree before
// a run.
func synthInto(dst []byte, hash uint64, size int) []byte {
	if cap(dst) < size {
		dst = make([]byte, size)
	}
	dst = dst[:size]
	x := hash
	i := 0
	for ; i+8 <= size; i += 8 {
		x = kv.Mix64(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	if i < size {
		x = kv.Mix64(x)
		for j := 0; i+j < size; j++ {
			dst[i+j] = byte(x >> (8 * uint(j)))
		}
	}
	return dst
}
