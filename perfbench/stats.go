package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentileMS returns the p-th percentile (nearest rank, 0 < p <= 100)
// of a sample in milliseconds. Every failed operation counts as a sample
// above any limit: it sorts after all measured latencies, so a run whose
// failures reach the percentile's rank reports +Inf instead of a number
// that hides them.
func percentileMS(lat []time.Duration, failed int, p float64) float64 {
	n := len(lat) + failed
	if n == 0 {
		return math.Inf(1)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(lat) {
		return math.Inf(1)
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ms(sorted[rank-1])
}

// slice is the latencies and failures of one stretch of a window.
type slice struct {
	lat    []time.Duration
	failed int
}

// latencySet holds one kind of operation's measurements as time slices.
type latencySet []slice

// sliceWidth is the length of one slice of a measured window. Tail
// percentiles are taken per slice and their median reported: stalls on
// this 2-vCPU class of machine come in bursts, and a burst that lands in
// one slice should not decide the run's p99. A slice is long enough that
// its p99 has at least ten samples beyond it at commit-open's 400 txn/s.
const sliceWidth = 5 * time.Second

// p50 is the median over every slice together.
func (s latencySet) p50() float64 {
	var all slice
	for _, sl := range s {
		all.lat = append(all.lat, sl.lat...)
		all.failed += sl.failed
	}
	return percentileMS(all.lat, all.failed, 50)
}

// tail is the median over the slices of each slice's p-th percentile, so
// a stall confined to one slice does not decide the run's tail. Slices
// whose percentile is over the limit sort last.
func (s latencySet) tail(p float64) float64 {
	if len(s) == 0 {
		return math.Inf(1)
	}
	v := make([]float64, len(s))
	for i, sl := range s {
		v[i] = percentileMS(sl.lat, sl.failed, p)
	}
	return median(v)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (the mean of the middle pair for an even
// count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// interval is a span's extent on the tracer clock, in microseconds.
type interval struct{ start, end int64 }

// selfTime returns a span's duration minus the part of it covered by its
// children. Children are clipped to the parent and overlapping children
// are counted once, so concurrent children (a coordinator's fan-out to
// every cohort) do not drive the result below zero.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			if cur.end > cur.start {
				covered += cur.end - cur.start
			}
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if cur.end > cur.start {
		covered += cur.end - cur.start
	}
	return (parent.end - parent.start) - covered
}

// promSample is one series value from a Prometheus text exposition.
type promSample struct {
	name   string // metric name including any _sum/_count/_bucket suffix
	labels string // the raw {...} label block, empty when unlabeled
	value  float64
}

// parseProm reads the Prometheus text format the cluster's metrics
// registry writes, skipping comments. Histogram buckets are kept as their
// own series; callers read the _sum and _count series.
func parseProm(text string) []promSample {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		id := line[:sp]
		s := promSample{name: id, value: v}
		if br := strings.IndexByte(id, '{'); br >= 0 {
			s.name, s.labels = id[:br], id[br:]
		}
		out = append(out, s)
	}
	return out
}

// registryDelta is the change of every series between two snapshots of
// one registry, summed per metric name across label sets (servers,
// phases, causes) unless a label filter is given.
type registryDelta struct{ before, after []promSample }

// sum returns the summed change of name over every series whose label
// block contains all of the given key="value" fragments.
func (d registryDelta) sum(name string, labelFilters ...string) float64 {
	total := func(ss []promSample) float64 {
		var t float64
	next:
		for _, s := range ss {
			if s.name != name {
				continue
			}
			for _, f := range labelFilters {
				if !strings.Contains(s.labels, f) {
					continue next
				}
			}
			t += s.value
		}
		return t
	}
	return total(d.after) - total(d.before)
}

// mean returns the mean observation of histogram family name over the
// delta window (sum/count), or 0 when nothing was observed.
func (d registryDelta) mean(name string, labelFilters ...string) float64 {
	n := d.sum(name+"_count", labelFilters...)
	if n == 0 {
		return 0
	}
	return d.sum(name+"_sum", labelFilters...) / n
}
