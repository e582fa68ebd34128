package main

import (
	"math/rand"
	"strconv"

	"repro/internal/txn"
)

// opKind is one step of a transaction plan.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// planOp is one read or write of a plan.
type planOp struct {
	kind  opKind
	item  txn.ItemID
	value []byte
}

// plan is one transaction's inputs, fixed before it runs so that retries
// re-execute exactly the same operations.
type plan struct {
	ops []planOp
}

// generator draws every input of a run from one seeded source: keys are
// uniform over all items, operations are distinct keys, and each is a
// write with probability writeFrac. The benchmark owns this generator so
// no change to the program's packages can shift its inputs.
type generator struct {
	rng       *rand.Rand
	items     []txn.ItemID
	opsPerTxn int
	writeFrac float64
	seq       int
}

func newGenerator(seed int64, items []txn.ItemID, opsPerTxn int, writeFrac float64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), items: items, opsPerTxn: opsPerTxn, writeFrac: writeFrac}
}

// distinctItems returns n distinct items drawn uniformly.
func (g *generator) distinctItems(n int) []txn.ItemID {
	out := make([]txn.ItemID, 0, n)
	seen := make(map[int]bool, n)
	for len(out) < n {
		i := g.rng.Intn(len(g.items))
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, g.items[i])
	}
	return out
}

// nextPlan returns the next transaction plan.
func (g *generator) nextPlan() *plan {
	g.seq++
	p := &plan{ops: make([]planOp, g.opsPerTxn)}
	for i, item := range g.distinctItems(g.opsPerTxn) {
		p.ops[i] = planOp{kind: opRead, item: item}
		if g.rng.Float64() < g.writeFrac {
			p.ops[i].kind = opWrite
			p.ops[i].value = []byte("v" + strconv.Itoa(g.seq) + "." + strconv.Itoa(i))
		}
	}
	return p
}
