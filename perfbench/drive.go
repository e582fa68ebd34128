package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/lightclient"
	"repro/internal/obs"
	"repro/internal/txn"
)

// Retry budget of one transaction plan. An abort (OCC conflict) needs
// fresh reads, so the plan is re-executed; a rejection (stale commit
// timestamp) leaves the session valid and the client library reopens it
// with a fast-forwarded clock, so the same session re-commits. A plan that
// exhausts either budget counts as failed.
const (
	maxExecutions = 20
	maxRecommits  = 100
)

// env is one cluster under test and the clients that drive it: at most
// one client endpoint per CPU, all drawing commit timestamps from one
// shared clock, with in-flight sessions multiplexed over them.
type env struct {
	c       *core.Cluster
	clients []*client.Client
	coll    *obs.Collector // span sink; nil when untraced
	dir     string         // data directory; empty in memory
	next    atomic.Uint64
}

// newEnv builds a cluster from cfg and attaches its clients. A traced env
// passes an in-memory collector into the program's existing spans.
func newEnv(cfg core.Config, traced bool, seed int64) (*env, error) {
	e := &env{dir: cfg.DataDir}
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	if traced {
		e.coll = &obs.Collector{}
		o.Tracer = obs.NewTracer(obs.TracerConfig{Sink: e.coll, Seed: seed})
	}
	cfg.Obs = o
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("build cluster: %w", err)
	}
	e.c = c
	clock := txn.NewSharedClock(1)
	for i := 0; i < runtime.NumCPU(); i++ {
		cl, err := c.NewClientWithTS(clock)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("new client: %w", err)
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

// client picks the endpoint for the next session, round-robin.
func (e *env) client() *client.Client {
	return e.clients[int(e.next.Add(1))%len(e.clients)]
}

// snapshot renders the cluster's metrics registry.
func (e *env) snapshot() []promSample {
	var b strings.Builder
	// Writing to a strings.Builder cannot fail.
	_ = e.c.Metrics().WritePrometheus(&b)
	return parseProm(b.String())
}

// opRec is the benchmark's own span set for one operation: when it was
// due, when it started, when its first execution's reads and writes ended,
// and when it ended, with the time spent in each public call.
type opRec struct {
	read      bool // a verified read, not a transaction
	warm      bool // due (open loop) or started (closed loop) in the warm-up
	due       time.Time
	start     time.Time
	execEnd   time.Time // end of the first execution's reads and writes
	end       time.Time
	readDur   time.Duration
	writeDur  time.Duration
	commitDur time.Duration
	reads     int
	writes    int
	attempts  int // Commit calls
	reissues  int // benchmark re-issues of a stale verified read
	session   string
	height    uint64
	ok        bool
	fail      string // failure class when !ok
	err       error  // the call error behind a "call" or "stale" failure
}

// runTxn executes a plan with the retry budget above and records it.
func runTxn(ctx context.Context, cl *client.Client, p *plan, r *opRec) {
	r.start = time.Now()
	defer func() { r.end = time.Now() }()
	fail := func(err error) {
		r.fail, r.err = "call", err
		if ctx.Err() != nil {
			r.fail = "drain"
		}
	}
	for exec := 0; exec < maxExecutions; exec++ {
		s := cl.Begin()
		for _, op := range p.ops {
			t0 := time.Now()
			var err error
			if op.kind == opRead {
				_, err = s.Read(ctx, op.item)
				r.readDur += time.Since(t0)
				r.reads++
			} else {
				err = s.Write(ctx, op.item, op.value)
				r.writeDur += time.Since(t0)
				r.writes++
			}
			if err != nil {
				fail(err)
				return
			}
		}
		if exec == 0 {
			r.execEnd = time.Now()
		}
		for rc := 0; rc < maxRecommits; rc++ {
			r.attempts++
			t0 := time.Now()
			res, err := s.Commit(ctx)
			r.commitDur += time.Since(t0)
			if err != nil {
				fail(err)
				return
			}
			if res.Committed {
				r.ok, r.session, r.height = true, s.ID(), res.Block.Height
				return
			}
			if !res.Rejected {
				break // aborted: re-execute with fresh reads
			}
		}
	}
	r.fail = "retries"
}

// A verified read that fails with ErrStaleRead after the light client's
// own immediate retries is re-issued by the benchmark, as an application
// would: honest servers apply a block at slightly different times, and a
// read can reach its shard's owner before the owner has applied a block
// the client already learned from another server. The re-issue waits
// staleBackoff first, so the owner can catch up. Its time counts in the
// read's latency and every re-issue is counted (bench.read_reissue_ratio);
// a read still stale after staleReissues re-issues counts as failed.
const (
	staleReissues = 200
	staleBackoff  = time.Millisecond
)

// runRead performs one proof-carrying read of items.
func runRead(ctx context.Context, lc *lightclient.Client, items []txn.ItemID, r *opRec) {
	r.read = true
	r.start = time.Now()
	vals, err := lc.ReadVerified(ctx, items...)
	for errors.Is(err, lightclient.ErrStaleRead) && r.reissues < staleReissues && pause(ctx, staleBackoff) {
		r.reissues++
		vals, err = lc.ReadVerified(ctx, items...)
	}
	r.end = time.Now()
	r.err = err
	switch {
	case err == nil && len(vals) == len(items):
		r.ok = true
	case errors.Is(err, lightclient.ErrStaleRead):
		r.fail = "stale"
	case ctx.Err() != nil:
		r.fail = "drain"
	default:
		r.fail = "call"
	}
}

// pause waits for d and reports whether ctx is still live.
func pause(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// load describes one measured phase. With rate > 0 it is an open loop:
// one generator goroutine issues operation i at its due time
// start + i/rate whatever the system's state, so a stall shows up as
// latency of the operations due during it. Otherwise workers sessions run
// as a closed loop, each issuing its next operation when the previous one
// ends. Operations due (open) or started (closed) during the warm-up are
// run but not measured.
type load struct {
	rate        float64
	workers     int
	warmup      time.Duration
	window      time.Duration
	drain       time.Duration // how long in-flight operations may finish after the window
	maxInflight int           // open loop: the generator waits (and runs late) beyond this
	// next builds operation i; it is called from a single goroutine at a
	// time and in order, so it may draw from a seeded generator.
	next func(i int) func(ctx context.Context, r *opRec)
	// atWindow, if set, runs when the measured window opens and closes.
	atWindow func(open bool)
}

// loadResult is what one phase measured.
type loadResult struct {
	from, until time.Time
	recs        []*opRec        // every operation issued, warm-up included
	lateness    []time.Duration // open loop: how late each measured operation was issued
	backlog     int             // operations in flight when the window closed
	heapPeaksMB []float64       // peak live heap of each second of the window
}

// run executes the phase and returns once every operation it started has
// ended.
func (l load) run() *loadResult {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := &loadResult{}
	start := time.Now()
	res.from = start.Add(l.warmup)
	res.until = res.from.Add(l.window)
	deadline := res.until.Add(l.drain)

	var (
		mu       sync.Mutex
		inflight atomic.Int64
		wg       sync.WaitGroup
	)
	issue := func(op func(context.Context, *opRec), r *opRec) {
		mu.Lock()
		res.recs = append(res.recs, r)
		mu.Unlock()
		inflight.Add(1)
		op(ctx, r)
		inflight.Add(-1)
	}
	openWindow := func() {
		if l.atWindow != nil {
			l.atWindow(true)
		}
	}
	stopHeap := sampleHeap(res)

	if l.rate > 0 {
		interval := time.Duration(float64(time.Second) / l.rate)
		sem := make(chan struct{}, l.maxInflight)
		opened := false
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(res.until) {
				break
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			warm := due.Before(res.from)
			if !warm && !opened {
				opened = true
				openWindow()
			}
			op := l.next(i)
			sem <- struct{}{}
			r := &opRec{due: due, warm: warm}
			if !warm {
				res.lateness = append(res.lateness, time.Since(due))
			}
			wg.Add(1)
			go func(op func(context.Context, *opRec), r *opRec) {
				defer wg.Done()
				defer func() { <-sem }()
				issue(op, r)
			}(op, r)
		}
	} else {
		var nextMu sync.Mutex
		n := 0
		for w := 0; w < l.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					now := time.Now()
					if !now.Before(res.until) {
						return
					}
					nextMu.Lock()
					op := l.next(n)
					n++
					nextMu.Unlock()
					issue(op, &opRec{due: now, warm: now.Before(res.from)})
				}
			}()
		}
		time.Sleep(time.Until(res.from))
		openWindow()
	}
	time.Sleep(time.Until(res.until))
	res.backlog = int(inflight.Load())
	if l.atWindow != nil {
		l.atWindow(false)
	}
	// Drain: wait for in-flight operations until the deadline, then cancel
	// whatever is left; anything still running then counts as failed.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
		cancel()
		<-done
	}
	stopHeap()
	for _, r := range res.recs {
		if r.ok && r.end.After(deadline) {
			r.ok, r.fail = false, "drain"
		}
	}
	return res
}

// sampleHeap samples the live heap (bytes marked live by the last GC)
// while the window is open and keeps each second's peak; the returned
// function stops the sampler and waits for it.
func sampleHeap(res *loadResult) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if now := time.Now(); !now.Before(res.from) && now.Before(res.until) {
				metrics.Read(s)
				sec := int(now.Sub(res.from) / time.Second)
				for len(res.heapPeaksMB) <= sec {
					res.heapPeaksMB = append(res.heapPeaksMB, 0)
				}
				if s[0].Value.Kind() == metrics.KindUint64 {
					if mb := float64(s[0].Value.Uint64()) / (1 << 20); mb > res.heapPeaksMB[sec] {
						res.heapPeaksMB[sec] = mb
					}
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(stop); <-done }
}

// slices splits the window's operations of one kind into slices of
// sliceWidth by due time.
func (res *loadResult) slices(read bool) latencySet {
	ok, failed := res.measured(read)
	if len(ok)+len(failed) == 0 {
		return nil
	}
	k := int(res.window() / sliceWidth)
	if k < 1 {
		k = 1
	}
	out := make(latencySet, k)
	at := func(r *opRec) int {
		i := int(r.due.Sub(res.from) / sliceWidth)
		if i >= k {
			i = k - 1
		}
		return i
	}
	for _, r := range ok {
		out[at(r)].lat = append(out[at(r)].lat, r.end.Sub(r.due))
	}
	for _, r := range failed {
		out[at(r)].failed++
	}
	return out
}

// measured returns the window's operations that were due (open loop) or
// started (closed loop) inside it, split into successes and failures.
func (res *loadResult) measured(read bool) (ok []*opRec, failed []*opRec) {
	for _, r := range res.recs {
		if r.read != read || r.warm {
			continue
		}
		if r.ok {
			ok = append(ok, r)
		} else {
			failed = append(failed, r)
		}
	}
	return ok, failed
}

// commitRate is the rate at which transactions committed inside the
// window: the commits between the first and the last completion in it,
// over the time between them. It equals the offered rate of a healthy open
// loop and the throughput of a closed one.
func (res *loadResult) commitRate() float64 {
	var n int
	var first, last time.Time
	for _, r := range res.recs {
		if r.read || !r.ok || r.end.Before(res.from) || !r.end.Before(res.until) {
			continue
		}
		if n == 0 || r.end.Before(first) {
			first = r.end
		}
		if r.end.After(last) {
			last = r.end
		}
		n++
	}
	if n < 2 || !last.After(first) {
		return 0
	}
	return float64(n-1) / last.Sub(first).Seconds()
}

// window returns the measured window's length.
func (res *loadResult) window() time.Duration { return res.until.Sub(res.from) }

// committed returns every committed transaction of the phase, warm-up
// included, for the gate's log check.
func (res *loadResult) committed() []*opRec {
	var out []*opRec
	for _, r := range res.recs {
		if !r.read && r.ok {
			out = append(out, r)
		}
	}
	return out
}

// seconds converts durations to fractional seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
