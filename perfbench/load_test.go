package main

import (
	"context"
	"testing"
	"time"
)

// sleepOp is an operation that takes d, or fails when its context ends
// first.
func sleepOp(d time.Duration) func(context.Context, *opRec) {
	return func(ctx context.Context, r *opRec) {
		r.start = time.Now()
		select {
		case <-time.After(d):
			r.ok = true
		case <-ctx.Done():
			r.fail = "drain"
		}
		r.end = time.Now()
	}
}

func TestOpenLoopIssuesOnScheduleAndTimesFromDue(t *testing.T) {
	opened, closed := 0, 0
	atWindow := func(open bool) {
		if open {
			opened++
		} else {
			closed++
		}
	}
	res := load{rate: 1000, warmup: 50 * time.Millisecond, window: 200 * time.Millisecond, drain: time.Second, maxInflight: 64,
		next:     func(int) func(context.Context, *opRec) { return sleepOp(time.Millisecond) },
		atWindow: atWindow}.run()
	if opened != 1 || closed != 1 {
		t.Fatalf("window hooks ran %d/%d times, want 1/1", opened, closed)
	}
	ok, failed := res.measured(false)
	if len(failed) != 0 || len(ok) != 200 {
		t.Fatalf("measured %d ok / %d failed, want 200 / 0", len(ok), len(failed))
	}
	if len(res.lateness) != 200 {
		t.Fatalf("lateness recorded for %d operations, want 200", len(res.lateness))
	}
	for _, r := range ok {
		if r.due.Before(res.from) || !r.due.Before(res.until) || r.end.Sub(r.due) < time.Millisecond {
			t.Fatalf("operation due %v outside the window or timed below its 1 ms duration", r.due)
		}
	}
	if n := len(res.slices(false)); n != 1 {
		t.Fatalf("a 200 ms window has %d slices, want 1", n)
	}
}

func TestClosedLoopAndDrainDeadline(t *testing.T) {
	res := load{workers: 4, warmup: 20 * time.Millisecond, window: 100 * time.Millisecond, drain: 50 * time.Millisecond,
		next: func(i int) func(context.Context, *opRec) {
			if i == 10 {
				return sleepOp(time.Hour) // still in flight at the drain deadline
			}
			return sleepOp(2 * time.Millisecond)
		}}.run()
	ok, failed := res.measured(false)
	if len(ok) < 50 {
		t.Fatalf("closed loop of 4 x 2 ms ops completed %d in 100 ms, want at least 50", len(ok))
	}
	drained := 0
	for _, r := range res.recs {
		if r.fail == "drain" {
			drained++
		}
	}
	if drained != 1 {
		t.Fatalf("%d operations failed at the drain deadline, want 1 (measured failures %d)", drained, len(failed))
	}
	if res.commitRate() <= 0 {
		t.Fatalf("commit rate = %v, want > 0", res.commitRate())
	}
}
