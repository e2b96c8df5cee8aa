package main

// The machine-speed control: lookups on the untouched ART and B-tree
// baselines over a fixed-size table, sampled at the start and the end of
// every run. No optimisation of the trie, the server or the WAL can move
// them; if they move, the machine moved.

import (
	"math"
	"runtime"
	"time"

	"repro/internal/art"
	"repro/internal/btree"
)

const (
	controlKeys   = 200_000
	controlProbes = 100_000
	controlPasses = 5 // a sample is the fastest of this many passes: interference only slows
	// noisyDrift flags a run whose control drifted by more than a tenth.
	noisyDrift = 0.10
)

type control struct {
	art    *art.Tree
	btree  *btree.Tree
	probes [][]byte
	// start and end samples, ns per key: [0] ART, [1] B-tree.
	start, end [2]float64
}

func newControl(c *runCtx, ks keySpace) (*control, error) {
	n := c.keyCount(controlKeys)
	keys := ks.loaded(n)
	ct := &control{art: art.New(), btree: btree.New()}
	for i, k := range keys {
		if _, err := ct.art.Set(k, uint64(i)); err != nil {
			return nil, err
		}
		if _, err := ct.btree.Set(k, uint64(i)); err != nil {
			return nil, err
		}
	}
	r := newRNG(0xc0)
	ct.probes = make([][]byte, min(n, controlProbes))
	for i := range ct.probes {
		ct.probes[i] = keys[r.intn(n)]
	}
	ct.start = ct.sample()
	return ct, nil
}

func (ct *control) sample() [2]float64 {
	// Finish any collection first: a concurrent mark phase (write barriers
	// on, a core busy) would slow the probes and read as machine drift.
	runtime.GC()
	s := [2]float64{math.Inf(1), math.Inf(1)}
	var sink uint64
	for pass := 0; pass < controlPasses; pass++ {
		t0 := time.Now()
		for _, k := range ct.probes {
			v, _ := ct.art.Get(k)
			sink += v
		}
		t1 := time.Now()
		for _, k := range ct.probes {
			v, _ := ct.btree.Get(k)
			sink += v
		}
		t2 := time.Now()
		s[0] = min(s[0], float64(t1.Sub(t0).Nanoseconds())/float64(len(ct.probes)))
		s[1] = min(s[1], float64(t2.Sub(t1).Nanoseconds())/float64(len(ct.probes)))
	}
	_ = sink
	return s
}

// finish takes the end sample and flags the run NOISY when either index
// drifted by more than noisyDrift since the start sample. A traced run also
// reports the control metrics (the mean of the two samples) and, where the
// core replays ran, the paper's trie-vs-ART comparison.
func (ct *control) finish(c *runCtx, res *result) {
	ct.end = ct.sample()
	drift := 0.0
	for i := range ct.start {
		drift = max(drift, math.Abs(ct.end[i]-ct.start[i])/ct.start[i])
	}
	c.logf("control ns/key start -> end: ART %.1f -> %.1f, B-tree %.1f -> %.1f (drift %.1f%%)",
		ct.start[0], ct.end[0], ct.start[1], ct.end[1], 100*drift)
	res.Noisy = drift > noisyDrift
	if !c.trace {
		return
	}
	m := res.Metrics
	m["control.art_get_ns_per_key"] = (ct.start[0] + ct.end[0]) / 2
	m["control.btree_get_ns_per_key"] = (ct.start[1] + ct.end[1]) / 2
	m["control.drift_frac"] = drift
	if get := m["core.get_ns_per_key"]; get > 0 {
		m["core.get_vs_art_ratio"] = get / m["control.art_get_ns_per_key"]
	}
}
