package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one /metrics read: series ("name" or "name{labels}") → value.
type scrape map[string]float64

var httpClient = &http.Client{Timeout: 10 * time.Second}

func readMetrics(admin string) (scrape, error) {
	resp, err := httpClient.Get("http://" + admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds every series of the named metric, whatever its labels.
func (s scrape) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// bucket is one cumulative histogram bucket.
type bucket struct{ le, count float64 }

// hist collects the cumulative buckets of a histogram, summed over every
// series whose labels contain filter ("" for all).
func (s scrape) hist(name, filter string) []bucket {
	byLE := map[float64]float64{}
	prefix := name + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) || !strings.Contains(k, filter) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		raw := k[i+4 : len(k)-2]
		le := math.Inf(1)
		if raw != "+Inf" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = f
		}
		byLE[le] += v
	}
	return sortedBuckets(byLE)
}

func sortedBuckets(byLE map[float64]float64) []bucket {
	out := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// nodes holds one scrape per server node.
type nodes []scrape

func (n nodes) sum(name string) float64 {
	t := 0.0
	for _, s := range n {
		t += s.sum(name)
	}
	return t
}

func (n nodes) hist(name, filter string) []bucket {
	byLE := map[float64]float64{}
	for _, s := range n {
		for _, b := range s.hist(name, filter) {
			byLE[b.le] += b.count
		}
	}
	return sortedBuckets(byLE)
}

// deltaBuckets subtracts a before-histogram from an after-histogram with
// the same bucket layout.
func deltaBuckets(after, before []bucket) []bucket {
	prev := map[float64]float64{}
	for _, b := range before {
		prev[b.le] = b.count
	}
	out := make([]bucket, len(after))
	for i, b := range after {
		out[i] = bucket{b.le, b.count - prev[b.le]}
	}
	return out
}

// quantile estimates the q-quantile of cumulative buckets by linear
// interpolation inside the bucket that holds it (the lowest bucket spans
// from 0), as Prometheus's histogram_quantile does; 0 when the histogram is
// empty.
func quantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	lo, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank && b.count > prevCount {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prevCount)/(b.count-prevCount)
		}
		lo, prevCount = b.le, b.count
	}
	return lo
}

// procCPU returns a process's user plus system CPU time, all threads.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set size in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
