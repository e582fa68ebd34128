package main

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/txn"
)

// pathTolerance is how far, as a share of the summed transaction latency,
// the commit critical-path parts may miss that latency before the traced
// run fails: client.execute + core.queue + tfcommit.round +
// client.commit_self must account for each single-attempt transaction's
// time from start to committed decision.
const pathTolerance = 0.05

// minJoined is the share of eligible transactions whose commit spans must
// be found in the trace for the per-layer split to be trusted.
const minJoined = 0.9

// layers accumulates per-layer metric values by name.
type layers map[string]float64

// spanIndex is the program's commit-path trace, reconstructed from the
// collector and indexed for the join with the benchmark's own records.
type spanIndex struct {
	// commit maps a session id to its last client.commit root span and
	// the batcher.terminate span under it.
	commit map[string]commitSpans
	// roundUS sums the tfcommit.round spans of each block height (a
	// pruned block is re-proposed at the same height).
	roundUS map[uint64]int64
	// selfUS collects the self time of every span by name.
	selfUS map[string][]int64
}

// commitSpans is one client.commit span's start and duration and the
// duration of the batcher.terminate span under it, in microseconds.
type commitSpans struct {
	start, commitUS, terminateUS int64
	hasTerminate                 bool
}

// indexSpans rebuilds the span trees and indexes them.
func indexSpans(spans []obs.SpanRecord) *spanIndex {
	idx := &spanIndex{commit: map[string]commitSpans{}, roundUS: map[uint64]int64{}, selfUS: map[string][]int64{}}
	roots, _ := obs.BuildSpanTree(spans)
	for _, root := range roots {
		root.Walk(func(n *obs.SpanNode) {
			rec := n.Rec
			span := interval{rec.StartUS, rec.StartUS + rec.DurUS}
			kids := make([]interval, len(n.Children))
			for i, c := range n.Children {
				kids[i] = interval{c.Rec.StartUS, c.Rec.StartUS + c.Rec.DurUS}
			}
			idx.selfUS[rec.Name] = append(idx.selfUS[rec.Name], selfTime(span, kids))
			switch rec.Name {
			case "client.commit":
				cs := commitSpans{start: rec.StartUS, commitUS: rec.DurUS}
				for _, c := range n.Children {
					if c.Rec.Name == "batcher.terminate" {
						cs.terminateUS, cs.hasTerminate = c.Rec.DurUS, true
					}
				}
				if prev, ok := idx.commit[rec.Attrs["txn"]]; !ok || prev.start < cs.start {
					idx.commit[rec.Attrs["txn"]] = cs
				}
			case "tfcommit.round":
				if h, err := strconv.ParseUint(rec.Attrs["height"], 10, 64); err == nil {
					idx.roundUS[h] += rec.DurUS
				}
			}
		})
	}
	return idx
}

// meanSelfMS returns the mean self time of the named spans, in ms.
func (idx *spanIndex) meanSelfMS(name string) float64 {
	v := idx.selfUS[name]
	if len(v) == 0 {
		return 0
	}
	var t int64
	for _, x := range v {
		t += x
	}
	return float64(t) / float64(len(v)) / 1000
}

// criticalPath joins every single-attempt committed transaction of the
// window to its spans and splits its latency from start to decision into
// client.execute, core.queue (terminate minus its block's round),
// tfcommit.round and client.commit_self (Commit minus terminate: sending,
// block decode, co-sign check). It fails when too few transactions join
// or when the parts miss the measured latency by more than pathTolerance.
func criticalPath(idx *spanIndex, recs []*opRec, out layers) error {
	var eligible, joined int
	var latUS, execUS, queueUS, roundUS, selfUS float64
	for _, r := range recs {
		if r.read || r.warm || !r.ok || r.attempts != 1 {
			continue
		}
		eligible++
		cs, ok := idx.commit[r.session]
		round, hasRound := idx.roundUS[r.height]
		if !ok || !cs.hasTerminate || !hasRound {
			continue
		}
		joined++
		latUS += us(r.end.Sub(r.start))
		execUS += us(r.execEnd.Sub(r.start))
		queueUS += float64(cs.terminateUS - round)
		roundUS += float64(round)
		selfUS += float64(cs.commitUS - cs.terminateUS)
	}
	if eligible == 0 || float64(joined) < minJoined*float64(eligible) {
		return fmt.Errorf("trace: joined %d of %d single-attempt commits to their spans", joined, eligible)
	}
	n := float64(joined)
	out["client.execute_ms"] = execUS / n / 1000
	out["core.queue_ms"] = queueUS / n / 1000
	out["client.commit_self_ms"] = selfUS / n / 1000
	out["bench.path_joined"] = n
	residual := latUS - (execUS + queueUS + roundUS + selfUS)
	out["bench.path_residual_ratio"] = residual / latUS
	if math.Abs(residual) > pathTolerance*latUS {
		return fmt.Errorf("trace: critical-path parts miss the latency by %.1f%% (tolerance %.0f%%)", 100*residual/latUS, 100*pathTolerance)
	}
	return nil
}

// commitLayers fills the per-layer metrics of the commit path from the
// benchmark's own records (B), the registry delta over the window (R) and
// the trace (T).
func commitLayers(res *loadResult, d registryDelta, idx *spanIndex, netDelay time.Duration, out layers) error {
	var committed, attempts, reads, writes int
	var readDur, writeDur, commitDur time.Duration
	for _, r := range res.recs {
		if r.read || r.warm {
			continue
		}
		if r.ok {
			committed++
		}
		attempts += r.attempts
		reads += r.reads
		writes += r.writes
		readDur += r.readDur
		writeDur += r.writeDur
		commitDur += r.commitDur
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["client.read_rpc_ms"] = div(ms(readDur), float64(reads))
	out["client.write_rpc_ms"] = div(ms(writeDur), float64(writes))
	out["transport.rpc_overhead_us"] = div(us(readDur), float64(reads)) - 2*us(netDelay)
	out["client.commit_ms"] = div(ms(commitDur), float64(attempts))
	out["client.attempts_per_commit"] = div(float64(attempts), float64(committed))
	out["server.occ_abort_ratio"] = div(d.sum("fides_server_occ_aborts_total"), float64(attempts))
	out["core.block_txns"] = d.mean("fides_batcher_block_txns")
	out["tfcommit.round_ms"] = 1000 * d.mean("fides_tfcommit_round_seconds")
	for _, ph := range []string{"vote", "challenge", "cosign", "decision"} {
		out["tfcommit."+ph+"_ms"] = 1000 * d.mean("fides_tfcommit_phase_seconds", `phase="`+ph+`"`)
	}
	out["tfcommit.decision_retries"] = d.sum("fides_tfcommit_decision_retries_total")
	for _, ph := range []string{"vote", "challenge", "decide", "apply"} {
		out["server."+ph+"_ms"] = idx.meanSelfMS("cohort." + ph)
	}
	out["server.catchup_blocks"] = d.sum("fides_server_catchup_blocks_total")
	out["store.mht_ms"] = 1000 * d.mean("fides_server_mht_seconds")
	out["durable.append_ms"] = 1000 * d.mean("fides_wal_append_seconds")
	out["durable.fsync_ms"] = 1000 * d.mean("fides_wal_fsync_seconds")
	out["durable.fsyncs_per_block"] = div(d.sum("fides_wal_fsync_seconds_count"), d.sum("fides_wal_append_seconds_count"))
	return criticalPath(idx, res.recs, out)
}

// blockLayers times the serial verification plane and the block codec on
// up to maxSample committed blocks of the given height range: envelope
// checks on the blocks' transactions re-sealed by a benchmark identity
// (blocks do not keep client envelopes), co-signature checks, and block
// encode size and decode time.
func blockLayers(c *core.Cluster, from, until uint64, out layers) error {
	const maxSample = 200
	log := c.ServerAt(0).Log()
	if until > uint64(log.Len()) {
		until = uint64(log.Len())
	}
	if until <= from {
		return fmt.Errorf("layers: no blocks committed in the window")
	}
	step := (until - from + maxSample - 1) / maxSample
	ident, err := c.NewClientIdentity()
	if err != nil {
		return err
	}
	v := crypto.NewSerial(c.Registry())
	var nBlocks, nEnv, size int
	var cosig, decode, envelope time.Duration
	for h := from; h < until; h += step {
		b, err := log.Get(h)
		if err != nil {
			return fmt.Errorf("layers: block %d: %w", h, err)
		}
		t0 := time.Now()
		if err := ledger.VerifyBlockSigWith(v, b); err != nil {
			return fmt.Errorf("layers: block %d co-signature: %w", h, err)
		}
		cosig += time.Since(t0)
		enc := b.AppendBinary(nil)
		size += len(enc)
		var dec ledger.Block
		t0 = time.Now()
		r := binenc.NewReader(enc)
		if err := ledger.DecodeBlock(&r, &dec); err != nil {
			return fmt.Errorf("layers: decode block %d: %w", h, err)
		}
		decode += time.Since(t0)
		nBlocks++
		for _, rec := range b.Txns {
			env, err := core.SignTxn(ident, &txn.Transaction{ID: rec.TxnID, TS: rec.TS, Reads: rec.Reads, Writes: rec.Writes})
			if err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := v.VerifyEnvelope(env); err != nil {
				return fmt.Errorf("layers: envelope of %s: %w", rec.TxnID, err)
			}
			envelope += time.Since(t0)
			nEnv++
		}
	}
	out["crypto.cosig_verify_us"] = us(cosig) / float64(nBlocks)
	out["ledger.block_bytes"] = float64(size) / float64(nBlocks)
	out["ledger.block_decode_us"] = us(decode) / float64(nBlocks)
	out["crypto.envelope_verify_us"] = 0
	if nEnv > 0 {
		out["crypto.envelope_verify_us"] = us(envelope) / float64(nEnv)
	}
	return nil
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// committedTxns counts the transactions in committed blocks of the log.
func committedTxns(c *core.Cluster) int {
	n := 0
	for _, b := range c.ServerAt(0).Log().Blocks() {
		if b.Decision == ledger.DecisionCommit {
			n += len(b.Txns)
		}
	}
	return n
}
