// Command perfbench is the repository's benchmark. It drives a Fides
// deployment only through public calls, measures one workload for a
// fixed window, checks the deployment is correct afterwards, and prints
// one JSON line with the end-to-end metrics (--trace 0) or the per-layer
// split of a separate traced run (--trace 1).
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload commit-open --seed 1 --seconds 10 --trace 0
//
// Workloads are defined, with the reason for each, in workloads.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// overLimit stands in for a percentile whose rank falls on a failed
// operation (JSON has no infinity).
const overLimit = math.MaxFloat64

// layerUnits gives every per-layer metric its unit; a traced run reports
// exactly these.
var layerUnits = map[string]string{
	"client.execute_ms":              "ms",
	"client.read_rpc_ms":             "ms",
	"client.write_rpc_ms":            "ms",
	"transport.rpc_overhead_us":      "us",
	"client.commit_ms":               "ms",
	"client.commit_self_ms":          "ms",
	"client.attempts_per_commit":     "count",
	"server.occ_abort_ratio":         "ratio",
	"core.queue_ms":                  "ms",
	"core.block_txns":                "count",
	"tfcommit.round_ms":              "ms",
	"tfcommit.vote_ms":               "ms",
	"tfcommit.challenge_ms":          "ms",
	"tfcommit.cosign_ms":             "ms",
	"tfcommit.decision_ms":           "ms",
	"tfcommit.decision_retries":      "count",
	"server.vote_ms":                 "ms",
	"server.challenge_ms":            "ms",
	"server.decide_ms":               "ms",
	"server.apply_ms":                "ms",
	"server.catchup_blocks":          "count",
	"store.mht_ms":                   "ms",
	"crypto.envelope_verify_us":      "us",
	"crypto.cosig_verify_us":         "us",
	"ledger.block_bytes":             "bytes",
	"ledger.block_decode_us":         "us",
	"durable.append_ms":              "ms",
	"durable.fsync_ms":               "ms",
	"durable.fsyncs_per_block":       "count",
	"durable.wal_bytes_per_txn":      "bytes",
	"durable.recover_us_per_block":   "us",
	"durable.recovery_s":             "s",
	"lightclient.read_ms":            "ms",
	"lightclient.stale_retry_ratio":  "ratio",
	"lightclient.proof_bytes":        "bytes",
	"lightclient.sync_headers_per_s": "1/s",
	"audit.blocks_per_s":             "1/s",
	"bench.gen_late_ms":              "ms",
	"bench.backlog":                  "count",
	"bench.trace_overhead_ratio":     "ratio",
	"bench.path_residual_ratio":      "ratio",
	"bench.path_joined":              "count",
	"bench.fail_ratio":               "ratio",
	"bench.read_reissue_ratio":       "ratio",
}

func main() {
	name := flag.String("workload", "", "workload to run (commit-open, commit-saturated)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	secs := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for durable data (removed afterwards)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*workdir), w.name+"-")
	if err != nil {
		fatal(err)
	}
	r := &runner{seed: *seed, window: time.Duration(*secs) * time.Second, trace: *trace == 1, workdir: dir}
	o, err := w.run(r)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	res := report(o, r.trace)
	for _, f := range o.flags {
		fmt.Fprintln(os.Stderr, "perfbench: FLAG:", f)
	}
	for class, n := range o.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %d operations failed (%s)\n", n, class)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// report turns an outcome into the output line: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
func report(o *outcome, traced bool) result {
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if traced {
		o.layers["bench.fail_ratio"] = float64(o.failed) / float64(o.attempted)
		for k, unit := range layerUnits {
			v, ok := o.layers[k]
			if !ok {
				fatal(fmt.Errorf("traced run did not measure %s", k))
			}
			res.Metrics[k] = metric{v, unit}
		}
		return res
	}
	pct := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return overLimit
		}
		return v
	}
	res.Metrics["setup_s"] = metric{median(seconds(o.setup)), "s"}
	res.Metrics["txn_p50_ms"] = metric{pct(o.txn.p50()), "ms"}
	res.Metrics["txn_p99_ms"] = metric{pct(o.txn.tail(99)), "ms"}
	res.Metrics["commit_tps"] = metric{o.commitTPS, "1/s"}
	res.Metrics["audit_us_per_txn"] = metric{o.audit.usPerTxn(), "us"}
	res.Metrics["sync_us_per_header"] = metric{1e6 * median(seconds(o.syncs)) / float64(o.syncHeaders), "us"}
	res.Metrics["read_p50_ms"] = metric{pct(o.read.p50()), "ms"}
	// Reads report p90, not p99: the read window's tail follows the host's
	// load more than the program's. On a 2-vCPU VM, five-seed spreads of
	// read p99 were 0.22-0.56, of p95 0.09-0.32, against a bound of 0.25.
	res.Metrics["read_p90_ms"] = metric{pct(o.read.tail(90)), "ms"}
	res.Metrics["live_heap_mb"] = metric{median(o.heapPeaksMB), "MB"}
	return res
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// fatal reports an error and exits without printing a result.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
