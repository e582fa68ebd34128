package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/txn"
)

func TestPercentileCountsFailuresOverTheLimit(t *testing.T) {
	lat := make([]time.Duration, 0, 100)
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	if got := percentileMS(lat, 0, 50); got != 50 {
		t.Fatalf("p50 of 1..100 ms = %v, want 50", got)
	}
	if got := percentileMS(lat, 0, 99); got != 99 {
		t.Fatalf("p99 of 1..100 ms = %v, want 99", got)
	}
	// 100 successes and 2 failures: rank ceil(0.99*102) = 101 falls past
	// every measured latency, so the percentile is over the limit.
	if got := percentileMS(lat, 2, 99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2 failures in 102 = %v, want +Inf", got)
	}
	// One failure in 101 shifts the rank instead of being dropped:
	// ceil(0.99*101) = 100, the largest measured latency.
	if got := percentileMS(lat, 1, 99); got != 100 {
		t.Fatalf("p99 with 1 failure in 101 = %v, want 100", got)
	}
	if got := percentileMS(lat, 1, 50); got != 51 {
		t.Fatalf("p50 with 1 failure in 101 = %v, want 51", got)
	}
	if got := percentileMS(nil, 3, 50); !math.IsInf(got, 1) {
		t.Fatalf("p50 of only failures = %v, want +Inf", got)
	}
	// The input slice is not reordered.
	rev := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := percentileMS(rev, 0, 100); got != 3 || rev[0] != 3*time.Millisecond {
		t.Fatalf("p100 = %v (input now %v), want 3 and input unchanged", got, rev)
	}
}

func TestSlicedP99IsTheMedianSliceAndCountsFailures(t *testing.T) {
	mk := func(fast, slow, failed int) slice {
		sl := slice{failed: failed}
		for i := 0; i < fast; i++ {
			sl.lat = append(sl.lat, time.Millisecond)
		}
		for i := 0; i < slow; i++ {
			sl.lat = append(sl.lat, 500*time.Millisecond)
		}
		return sl
	}
	// A stall confined to one slice does not decide the tail: the per-slice
	// p99s are 500, 1 and 1 ms, and their median is 1 ms.
	set := latencySet{mk(90, 10, 0), mk(100, 0, 0), mk(100, 0, 0)}
	if got := set.tail(99); got != 1 {
		t.Fatalf("p99 = %v, want 1", got)
	}
	// Two slices with 2 failures in 102 each are over the limit, and so is
	// the median.
	set = latencySet{mk(100, 0, 2), mk(100, 0, 2), mk(100, 0, 0)}
	if got := set.tail(99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with most slices failing = %v, want +Inf", got)
	}
	// p50 pools every slice: 300 successes at 1 ms, then 4 failures.
	if got := set.p50(); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := (latencySet{}).tail(99); !math.IsInf(got, 1) {
		t.Fatalf("p99 of nothing = %v, want +Inf", got)
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     int64
	}{
		{"leaf", interval{0, 100}, nil, 100},
		{"disjoint children", interval{0, 100}, []interval{{10, 20}, {50, 80}}, 60},
		{"overlapping fan-out counted once", interval{0, 100}, []interval{{10, 60}, {20, 50}, {40, 70}}, 40},
		{"children clipped to parent", interval{10, 100}, []interval{{0, 30}, {90, 150}}, 60},
		{"child outside parent ignored", interval{0, 100}, []interval{{200, 300}}, 100},
		{"adjacent children", interval{0, 100}, []interval{{0, 50}, {50, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

const promBefore = `# HELP fides_tfcommit_phase_seconds Phase latency.
# TYPE fides_tfcommit_phase_seconds histogram
fides_tfcommit_phase_seconds_bucket{phase="vote",server="s00",le="0.001"} 1
fides_tfcommit_phase_seconds_sum{phase="vote",server="s00"} 0.5
fides_tfcommit_phase_seconds_count{phase="vote",server="s00"} 10
fides_tfcommit_phase_seconds_sum{phase="cosign",server="s00"} 0.1
fides_tfcommit_phase_seconds_count{phase="cosign",server="s00"} 10
# HELP fides_server_occ_aborts_total OCC aborts.
# TYPE fides_server_occ_aborts_total counter
fides_server_occ_aborts_total{cause="stale_ts",server="s01"} 3
fides_server_occ_aborts_total{cause="read_conflict",server="s02"} 4
fides_wal_fsync_seconds_count 7
`

const promAfter = `fides_tfcommit_phase_seconds_sum{phase="vote",server="s00"} 1.5
fides_tfcommit_phase_seconds_count{phase="vote",server="s00"} 20
fides_tfcommit_phase_seconds_sum{phase="vote",server="s01"} 1
fides_tfcommit_phase_seconds_count{phase="vote",server="s01"} 10
fides_tfcommit_phase_seconds_sum{phase="cosign",server="s00"} 0.1
fides_tfcommit_phase_seconds_count{phase="cosign",server="s00"} 10
fides_server_occ_aborts_total{cause="stale_ts",server="s01"} 5
fides_server_occ_aborts_total{cause="read_conflict",server="s02"} 10
fides_wal_fsync_seconds_count 7
`

func TestRegistryDelta(t *testing.T) {
	d := registryDelta{before: parseProm(promBefore), after: parseProm(promAfter)}
	// Counters sum across label sets: (5-3) + (10-4).
	if got := d.sum("fides_server_occ_aborts_total"); got != 8 {
		t.Fatalf("occ aborts delta = %v, want 8", got)
	}
	if got := d.sum("fides_server_occ_aborts_total", `cause="stale_ts"`); got != 2 {
		t.Fatalf("stale_ts delta = %v, want 2", got)
	}
	// A series that appears only after the window opened counts from zero:
	// vote sum grew 1.0 on s00 and 1.0 on s01 over 10+10 observations.
	if got := d.mean("fides_tfcommit_phase_seconds", `phase="vote"`); got != 0.1 {
		t.Fatalf("vote mean = %v, want 0.1", got)
	}
	// No new observations: the mean is 0, not NaN.
	if got := d.mean("fides_tfcommit_phase_seconds", `phase="cosign"`); got != 0 {
		t.Fatalf("cosign mean = %v, want 0", got)
	}
	if got := d.sum("fides_wal_fsync_seconds_count"); got != 0 {
		t.Fatalf("unlabeled unchanged delta = %v, want 0", got)
	}
	if got := d.sum("fides_missing_total"); got != 0 {
		t.Fatalf("missing family delta = %v, want 0", got)
	}
}

func TestParsePromSkipsCommentsAndSplitsLabels(t *testing.T) {
	ss := parseProm("# HELP x y\nfides_a_total 3\nfides_b{k=\"v\"} 1.25\n\nnot a sample\n")
	if len(ss) != 2 {
		t.Fatalf("parsed %d samples, want 2: %+v", len(ss), ss)
	}
	if ss[0].name != "fides_a_total" || ss[0].labels != "" || ss[0].value != 3 {
		t.Fatalf("first sample = %+v", ss[0])
	}
	if ss[1].name != "fides_b" || ss[1].labels != `{k="v"}` || ss[1].value != 1.25 {
		t.Fatalf("second sample = %+v", ss[1])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Fatalf("median empty = %v, want NaN", got)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	items := []txn.ItemID{"a", "b", "c", "d", "e", "f", "g", "h"}
	a := newGenerator(7, items, 5, 0.5)
	b := newGenerator(7, items, 5, 0.5)
	for i := 0; i < 20; i++ {
		pa, pb := a.nextPlan(), b.nextPlan()
		seen := map[txn.ItemID]bool{}
		for j := range pa.ops {
			if pa.ops[j].item != pb.ops[j].item || pa.ops[j].kind != pb.ops[j].kind || string(pa.ops[j].value) != string(pb.ops[j].value) {
				t.Fatalf("plan %d op %d differs between equal seeds", i, j)
			}
			if seen[pa.ops[j].item] {
				t.Fatalf("plan %d repeats item %s", i, pa.ops[j].item)
			}
			seen[pa.ops[j].item] = true
		}
	}
}
