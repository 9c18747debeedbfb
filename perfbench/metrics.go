package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one GET /metrics exposition: series value by series key, the
// key being the series as printed (name plus rendered label set).
type scrape map[string]float64

// parseMetrics reads the Prometheus text format the server exposes.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
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

// fetchMetrics scrapes GET /metrics from the server at base.
func fetchMetrics(hc *http.Client, base string) (scrape, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// seriesName splits a series key into its metric name and label set.
func seriesName(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// sum adds every series of the named metric whose label set contains all
// of the given label fragments (e.g. `kind="flat"`).
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for key, v := range s {
		n, l := seriesName(key)
		if n != name {
			continue
		}
		ok := true
		for _, frag := range labels {
			if !strings.Contains(l, frag) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// max returns the largest value among the named metric's series.
func (s scrape) max(name string) float64 {
	m := 0.0
	for key, v := range s {
		if n, _ := seriesName(key); n == name && v > m {
			m = v
		}
	}
	return m
}

// minus returns the per-series difference s - before.
func (s scrape) minus(before scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// histMean is a histogram's mean observation (sum over count), 0 when it
// observed nothing.
func (s scrape) histMean(name string) float64 {
	return ratio(s.sum(name+"_sum"), s.sum(name+"_count"))
}

// histQuantile estimates the q-quantile of a histogram from its cumulative
// buckets, interpolating linearly inside the bucket that holds the rank (the
// usual Prometheus estimate). It returns 0 when the histogram is empty.
func (s scrape) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for key, v := range s {
		n, l := seriesName(key)
		if n != name+"_bucket" {
			continue
		}
		i := strings.Index(l, `le="`)
		if i < 0 {
			continue
		}
		raw := l[i+4:]
		raw = raw[:strings.IndexByte(raw, '"')]
		le := math.Inf(1)
		if raw != "+Inf" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := s.sum(name + "_count")
	if len(bs) == 0 || total <= 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
// xs must be sorted ascending.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
