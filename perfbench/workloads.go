package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/lightclient"
	"repro/internal/txn"
)

// Shared shape of every workload: 5 servers of 10 000 items, 250 µs
// one-way injected network delay, 5-operation transactions with 50%
// writes over uniformly chosen keys, the default serial crypto backend.
const (
	numServers    = 5
	itemsPerShard = 10000
	netDelay      = 250 * time.Microsecond
	opsPerTxn     = 5
	writeFrac     = 0.5

	// A run builds its deployment setupRepeats times; setup_s is the
	// median, and the last build is the one measured.
	setupRepeats = 9
	// Consumer rounds (see consumerRounds): at least minRounds and at
	// least roundsBudget; a round syncs from genesis for syncSlice (one
	// sync of a short chain takes tens of milliseconds, too short to time
	// once).
	minRounds    = 3
	roundsBudget = 12 * time.Second
	syncSlice    = 600 * time.Millisecond
	// The read window: open-loop verified reads at readRate after
	// readWarmup, with every trickleEvery-th operation a transaction
	// instead (50 txn/s beside 1000 reads/s).
	readRate     = 1000.0
	readWarmup   = time.Second
	trickleEvery = 21
	// readItems is the size of one verified read.
	readItems = 8
)

// workload is one named input set. why records the reason it is in the
// benchmark, next to its definition.
type workload struct {
	name, why string
	run       func(r *runner) (*outcome, error)
}

var workloads = []workload{
	{
		name: "commit-open",
		why: "open loop at 400 txn/s, about half the serial ceiling, in memory: blocks stay small, so per-block " +
			"TFCommit cost and batcher queueing set latency while durability is idle",
		run: (*runner).commitOpen,
	},
	{
		name: "commit-saturated",
		why: "closed loop of 200 sessions on the durable, pipelined, rotating-coordinator deployment: full blocks, " +
			"so per-transaction verify, decode and WAL cost set throughput; the chain it leaves is restarted " +
			"with verified recovery before its consumers are timed",
		run: (*runner).commitSaturated,
	},
}

func baseConfig() core.Config {
	return core.Config{
		NumServers:     numServers,
		ItemsPerShard:  itemsPerShard,
		NetworkLatency: netDelay,
		// Microsecond-accurate injected delays, as the repo's own bench
		// harness uses; plain sleeps overshoot 250 µs by a scheduler tick.
		PreciseNetDelay: true,
	}
}

// outcome is everything one run measured.
type outcome struct {
	setup       []time.Duration
	txn, read   latencySet // latency from due time, in time slices
	commitTPS   float64
	audit       auditPhase
	syncs       []time.Duration
	syncHeaders uint64 // headers one sync verified
	heapPeaksMB []float64
	attempted   int
	failed      int
	failures    map[string]int // failed operations by class
	layers      layers
	flags       []string
}

// account adds a phase's measured operations to the outcome: their
// latencies, and their count and failures.
func (o *outcome) account(res *loadResult) {
	o.txn = append(o.txn, res.slices(false)...)
	o.read = append(o.read, res.slices(true)...)
	o.count(res)
}

// count adds a phase's operations and failures to the outcome.
func (o *outcome) count(res *loadResult) {
	ok, failed := res.measured(false)
	rok, rfailed := res.measured(true)
	o.attempted += len(ok) + len(failed) + len(rok) + len(rfailed)
	o.failed += len(failed) + len(rfailed)
	if o.failures == nil {
		o.failures = map[string]int{}
	}
	for _, f := range append(failed, rfailed...) {
		if o.failures[f.fail]++; o.failures[f.fail] == 1 && f.err != nil {
			o.flags = append(o.flags, fmt.Sprintf("first %q failure: %v", f.fail, f.err))
		}
	}
}

// flagRate records an open-loop phase that fell behind its offered rate.
func (o *outcome) flagRate(name string, res *loadResult, rate float64) {
	window := res.until.Sub(res.from).Seconds()
	achieved := float64(len(res.lateness)) / window
	if achieved < 0.95*rate {
		o.flags = append(o.flags, fmt.Sprintf("%s: generator issued %.0f/s of the offered %.0f/s", name, achieved, rate))
	}
	done := 0
	for _, r := range res.recs {
		if !r.warm && r.ok && r.end.Before(res.until) {
			done++
		}
	}
	if float64(done)/window < 0.9*rate {
		o.flags = append(o.flags, fmt.Sprintf("%s: completed %.0f/s of the offered %.0f/s inside the window", name, float64(done)/window, rate))
	}
}

// runner carries one invocation's arguments.
type runner struct {
	seed    int64
	window  time.Duration
	trace   bool
	workdir string
	dirs    int
}

// freshDir returns a new, empty data directory under the work directory.
func (r *runner) freshDir() string {
	r.dirs++
	return filepath.Join(r.workdir, fmt.Sprintf("d%02d", r.dirs))
}

// buildRepeated builds a deployment setupRepeats times, closing all but
// the last, and returns it with every build's duration.
func (r *runner) buildRepeated(o *outcome, build func() (*env, error)) (*env, error) {
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.c.Close()
		}
		t0 := time.Now()
		var err error
		if e, err = build(); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0))
	}
	return e, nil
}

// txnOp returns the operation that runs plan p on the next client.
func txnOp(e *env, p *plan) func(context.Context, *opRec) {
	cl := e.client()
	return func(ctx context.Context, r *opRec) { runTxn(ctx, cl, p, r) }
}

// readOp returns the operation that reads items through lc.
func readOp(lc *lightclient.Client, items []txn.ItemID) func(context.Context, *opRec) {
	return func(ctx context.Context, r *opRec) { runRead(ctx, lc, items, r) }
}

const (
	openRate         = 400.0
	saturatedWorkers = 200
	commitWarmup     = 2 * time.Second
	drainTimeout     = 10 * time.Second
	maxInflight      = 4096
)

func (r *runner) commitOpen() (*outcome, error) {
	cfg := func() core.Config {
		c := baseConfig()
		c.BatchSize = 100
		return c
	}
	return r.commitWorkload(cfg, false, func(e *env, g *generator, atWindow func(bool)) load {
		return load{rate: openRate, warmup: commitWarmup, window: r.window, drain: drainTimeout, maxInflight: maxInflight,
			next: func(int) func(context.Context, *opRec) { return txnOp(e, g.nextPlan()) }, atWindow: atWindow}
	})
}

func (r *runner) commitSaturated() (*outcome, error) {
	cfg := func() core.Config {
		c := baseConfig()
		c.BatchSize = 100
		c.DataDir = r.freshDir()
		c.Fsync = durable.FsyncGroup
		c.Pipeline = 4
		c.Coordinators = numServers
		return c
	}
	return r.commitWorkload(cfg, true, func(e *env, g *generator, atWindow func(bool)) load {
		return load{workers: saturatedWorkers, warmup: commitWarmup, window: r.window, drain: drainTimeout,
			next: func(int) func(context.Context, *opRec) { return txnOp(e, g.nextPlan()) }, atWindow: atWindow}
	})
}

// commitWorkload runs a workload: its commit window, the correctness
// gate, a restart with verified recovery of a durable deployment, consumer
// rounds on the chain, and a read window beside a write trickle. Untraced,
// it builds the deployment setupRepeats times and measures the last
// build. Traced, it runs the commit window once untraced and once traced
// on fresh deployments, derives the per-layer split from the traced one,
// and reports how much tracing cost on the workload's headline metric.
func (r *runner) commitWorkload(cfg func() core.Config, closed bool, mk func(*env, *generator, func(bool)) load) (*outcome, error) {
	o := &outcome{layers: layers{}}
	build := func(traced bool) func() (*env, error) {
		return func() (*env, error) { return newEnv(cfg(), traced, r.seed) }
	}
	headline := func(res *loadResult) float64 {
		if closed {
			return 1 / res.commitRate()
		}
		return res.slices(false).p50()
	}
	var untraced float64
	if r.trace {
		e, err := build(false)()
		if err != nil {
			return nil, err
		}
		res := mk(e, newGenerator(r.seed, e.c.Directory().Items(), opsPerTxn, writeFrac), nil).run()
		err = gate(e, res.committed())
		e.c.Close()
		if err != nil {
			return nil, err
		}
		untraced = headline(res)
	}
	var e *env
	var err error
	if r.trace {
		e, err = build(true)()
	} else {
		e, err = r.buildRepeated(o, build(false))
	}
	if err != nil {
		return nil, err
	}
	defer e.c.Close()
	g := newGenerator(r.seed, e.c.Directory().Items(), opsPerTxn, writeFrac)

	var before, after []promSample
	var hFrom, hUntil uint64
	atWindow := func(open bool) {
		if open {
			if e.coll != nil {
				e.coll.Reset()
			}
			before, hFrom = e.snapshot(), uint64(e.c.ServerAt(0).Log().Len())
			return
		}
		after, hUntil = e.snapshot(), uint64(e.c.ServerAt(0).Log().Len())
	}
	res := mk(e, g, atWindow).run()
	o.account(res)
	o.heapPeaksMB = res.heapPeaksMB
	o.commitTPS = res.commitRate()
	if !closed {
		o.flagRate("transactions", res, openRate)
	}
	if err := gate(e, res.committed()); err != nil {
		return nil, err
	}
	if r.trace {
		d := registryDelta{before: before, after: after}
		if err := commitLayers(res, d, indexSpans(e.coll.Spans()), netDelay, o.layers); err != nil {
			return nil, err
		}
		if err := blockLayers(e.c, hFrom, hUntil, o.layers); err != nil {
			return nil, err
		}
		o.layers["bench.trace_overhead_ratio"] = headline(res) / untraced
		genLayers(res, o.layers)
		var walBytes int64
		if e.dir != "" {
			if walBytes, err = dirBytes(e.dir); err != nil {
				return nil, err
			}
		}
		o.layers["durable.wal_bytes_per_txn"] = float64(walBytes) / float64(committedTxns(e.c))
		o.layers["durable.recover_us_per_block"] = 0
		o.layers["durable.recovery_s"] = 0
	}
	if e.dir != "" {
		if e, err = r.restart(e, cfg, o); err != nil {
			return nil, err
		}
		defer e.c.Close()
	}
	lc, err := r.consumerRounds(e, o)
	if err != nil {
		return nil, err
	}
	return o, r.reads(e, lc, o)
}

// restart closes a durable deployment and starts it again from its data
// directory with verified recovery, timed in the traced run's durable
// layer.
func (r *runner) restart(e *env, cfg func() core.Config, o *outcome) (*env, error) {
	c := cfg()
	c.DataDir = e.dir
	e.c.Close()
	t0 := time.Now()
	e, err := newEnv(c, false, r.seed)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	recovery := time.Since(t0)
	if r.trace {
		recovered := e.c.ServerAt(0).Log().Len()
		o.layers["durable.recovery_s"] = recovery.Seconds()
		o.layers["durable.recover_us_per_block"] = us(recovery) / float64(recovered)
	}
	return e, nil
}

// consumerRounds times the chain's consumers in rounds: each round runs a
// full audit (audit_us_per_txn) and fresh light clients syncing from
// genesis for syncSlice (sync_us_per_header). Rounds repeat at least
// minRounds times and until roundsBudget has passed, so each metric's
// samples spread over the whole phase instead of one stretch of it: on a
// shared host the machine's speed shifts over seconds, and a median over
// samples from one stretch reads that stretch's speed. It returns the last
// synced light client.
func (r *runner) consumerRounds(e *env, o *outcome) (*lightclient.Client, error) {
	var lc *lightclient.Client
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < roundsBudget; i++ {
		if err := o.audit.add(e); err != nil {
			return nil, err
		}
		var err error
		if lc, err = r.syncs(e, o); err != nil {
			return nil, err
		}
	}
	if r.trace {
		o.layers["audit.blocks_per_s"] = float64(o.audit.blocks) / median(seconds(o.audit.durs))
		o.layers["lightclient.sync_headers_per_s"] = float64(o.syncHeaders) / median(seconds(o.syncs))
	}
	return lc, nil
}

// syncs times fresh light clients syncing from genesis for syncSlice, at
// least twice, and returns the last, synced, one.
func (r *runner) syncs(e *env, o *outcome) (*lightclient.Client, error) {
	var lc *lightclient.Client
	var height uint64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < syncSlice; i++ {
		var err error
		if lc, err = e.c.NewLightClient(); err != nil {
			return nil, err
		}
		runtime.GC() // start every timed sync from the same heap state
		t0 := time.Now()
		if height, err = lc.Sync(context.Background()); err != nil {
			return nil, fmt.Errorf("light-client sync: %w", err)
		}
		o.syncs = append(o.syncs, time.Since(t0))
	}
	o.syncHeaders = height + 1
	return lc, nil
}

// reads runs open-loop verified reads through lc beside a write trickle
// for the window (read_p50_ms, read_p90_ms), then the correctness gate
// again. The trickle's transactions count as operations; the workload's
// transaction latency is its commit window's.
func (r *runner) reads(e *env, lc *lightclient.Client, o *outcome) error {
	g := newGenerator(r.seed+1, e.c.Directory().Items(), opsPerTxn, writeFrac)
	rate := readRate * (1 + 1.0/(trickleEvery-1))
	var before, after []promSample
	res := load{rate: rate, warmup: readWarmup, window: r.window, drain: drainTimeout, maxInflight: maxInflight,
		next: func(i int) func(context.Context, *opRec) {
			if i%trickleEvery == trickleEvery-1 {
				return txnOp(e, g.nextPlan())
			}
			return readOp(lc, g.distinctItems(readItems))
		},
		atWindow: func(open bool) {
			if open {
				before = e.snapshot()
				return
			}
			after = e.snapshot()
		}}.run()
	o.count(res)
	o.read = append(o.read, res.slices(true)...)
	o.flagRate("reads and trickle", res, rate)
	if r.trace {
		readLayers(res, registryDelta{before: before, after: after}, o.layers)
	}
	return gate(e, res.committed())
}

// readLayers fills the light-client layer from a read phase.
func readLayers(res *loadResult, d registryDelta, out layers) {
	var n, reissues int
	var dur time.Duration
	for _, r := range res.recs {
		if r.read && !r.warm {
			n++
			dur += r.end.Sub(r.start)
			reissues += r.reissues
		}
	}
	out["lightclient.read_ms"] = ms(dur) / float64(n)
	out["bench.read_reissue_ratio"] = float64(reissues) / float64(n)
	out["lightclient.stale_retry_ratio"] = d.sum("fides_lightclient_stale_retries_total") / float64(n)
	out["lightclient.proof_bytes"] = d.mean("fides_lightclient_proof_bytes")
}

// genLayers reports how the load generator itself behaved.
func genLayers(res *loadResult, out layers) {
	var late time.Duration
	for _, l := range res.lateness {
		late += l
	}
	out["bench.gen_late_ms"] = 0
	if len(res.lateness) > 0 {
		out["bench.gen_late_ms"] = ms(late) / float64(len(res.lateness))
	}
	out["bench.backlog"] = float64(res.backlog)
}
