package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of samples: the
// smallest sample with at least a q share of all samples at or below it.
// It sorts samples in place and returns 0 for an empty slice.
func quantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[min(max(rank, 0), len(samples)-1)]
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work on this
// workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- /proc/<pid>/stat ----

// parseProcStat returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may hold
// spaces or parentheses itself, so fields are counted from the last ')'.
func parseProcStat(b []byte) (uint64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", b)
	}
	// After ')' come fields 3 (state) onwards; utime and stime are 14 and 15.
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times. Linux fixes it
// at 100 on every architecture Go supports.
const clockTicks = 100

// ---- pprof heap, debug=1 ----

// parseHeapAlloc returns HeapAlloc from the runtime.MemStats trailer of a
// debug=1 heap profile ("# HeapAlloc = 123456").
func parseHeapAlloc(b []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	return 0, fmt.Errorf("heap profile: no HeapAlloc line")
}

// ---- Prometheus text exposition ----

// scrape is one /metrics exposition: every sample keyed by its full series
// name including labels, e.g. `cadel_ingest_shed_total{cause="rate"}`.
type scrape map[string]float64

// parseScrape reads the Prometheus text format the server writes.
func parseScrape(b []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }

// histQuantile returns the q-quantile of histogram name over the interval
// between two scrapes, as the upper bound of the bucket holding it (the
// server's histograms have four buckets per octave, so the answer is within
// about 19% of the true value). It returns 0 when nothing was observed.
func histQuantile(before, after scrape, name string, q float64) float64 {
	prefix := name + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range after {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		leStr := strings.TrimSuffix(rest, `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	for _, b := range bs {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				break
			}
			return b.le
		}
	}
	// The quantile sits in the +Inf bucket: report the largest finite bound.
	for i := len(bs) - 1; i >= 0; i-- {
		if !math.IsInf(bs[i].le, 1) {
			return bs[i].le
		}
	}
	return 0
}
