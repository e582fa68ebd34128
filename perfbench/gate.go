package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/ledger"
)

// convergeTimeout bounds how long the gate waits for every server to
// apply the last decisions before comparing logs.
const convergeTimeout = 20 * time.Second

// auditPhase is what a series of full audits of one log measured.
type auditPhase struct {
	durs         []time.Duration
	blocks, txns int // size of the audited log
}

// usPerTxn is the median audit time per audited transaction: audit cost
// normalized by the work it covers, so a workload that commits more in its
// window does not read as a slower audit.
func (a auditPhase) usPerTxn() float64 { return 1e6 * median(seconds(a.durs)) / float64(a.txns) }

// add times one full audit of e's log into the phase.
func (a *auditPhase) add(e *env) error {
	runtime.GC() // start every timed audit from the same heap state
	t0 := time.Now()
	blocks, txns, err := auditClean(e)
	a.durs = append(a.durs, time.Since(t0))
	a.blocks, a.txns = blocks, txns
	return err
}

// gate is the correctness check every run ends with: all servers hold
// logs of equal height with equal tip hashes, a full audit with the
// datastore check reports no finding, and every transaction the benchmark
// saw committed sits in a committed block of the log.
func gate(e *env, committed []*opRec) error {
	if err := converge(e); err != nil {
		return err
	}
	if _, _, err := auditClean(e); err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	log := e.c.ServerAt(0).Log()
	inLog := make(map[string]bool)
	for _, b := range log.Blocks() {
		if b.Decision != ledger.DecisionCommit {
			continue
		}
		for _, t := range b.Txns {
			inLog[t.TxnID] = true
		}
	}
	for _, r := range committed {
		if !inLog[r.session] {
			return fmt.Errorf("gate: committed transaction %s missing from the log", r.session)
		}
	}
	return nil
}

// auditClean runs a full audit with the datastore check and fails unless
// it is clean. It returns the size of the audited log.
func auditClean(e *env) (blocks, txns int, err error) {
	rep, err := e.c.Audit(context.Background(), audit.Options{CheckDatastore: true})
	if err != nil {
		return 0, 0, fmt.Errorf("audit: %w", err)
	}
	if !rep.Clean() {
		return 0, 0, fmt.Errorf("audit reported %d findings, first: %+v", len(rep.Findings), rep.Findings[0])
	}
	for _, b := range rep.Authoritative {
		txns += len(b.Txns)
	}
	return len(rep.Authoritative), txns, nil
}

// converge waits until every server's log has the same height and tip
// hash.
func converge(e *env) error {
	deadline := time.Now().Add(convergeTimeout)
	for {
		ids := e.c.Servers()
		first := e.c.Server(ids[0]).Log()
		height, tip := first.Len(), first.TipHash()
		same := true
		for _, id := range ids[1:] {
			l := e.c.Server(id).Log()
			if l.Len() != height || !bytes.Equal(l.TipHash(), tip) {
				same = false
				break
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate: server logs did not converge within %v", convergeTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
