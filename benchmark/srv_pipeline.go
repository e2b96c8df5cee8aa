package main

// srv_pipeline_mem: the real ctredis binary with default flags, memory only.
// The table is small and hot, so RESP parsing, miniredis dispatch and the
// reply flush dominate and core is a minor share: executor, metrics-registry
// and RESP changes show here, and a core-only change is predicted to move
// nothing.

import "time"

const (
	spKeys  = 200_000 // loaded over the wire, round-robin across 8 sets; a multiple of srvSets
	spDepth = 32
	// spPipelinesPerSec is the calibrated per-connection request rate.
	spPipelinesPerSec = 2_500
)

// genPipeline draws 70% ZSCORE, 20% ZADD (half updates of loaded members,
// half fresh members), 5% ZMSCORE x8 and 5% ZRANGEBYLEX ... 20, zipfian over
// the loaded keys.
func genPipeline(seed uint64, worker, cmds int, z *zipf) srvStream {
	r := newRNG(seed ^ uint64(0x7370+worker)<<32)
	s := srvStream{kinds: make([]uint8, cmds), idx: make([]uint32, cmds)}
	var fresh uint32
	for i := range s.kinds {
		switch p := r.intn(100); {
		case p < 70:
			s.kinds[i], s.idx[i] = cmdZScore, z.rank(r)
		case p < 80:
			s.kinds[i], s.idx[i] = cmdZAddUpdate, z.rank(r)
		case p < 90:
			s.kinds[i], s.idx[i] = cmdZAddFresh, fresh
			fresh++
		case p < 95:
			s.kinds[i], s.idx[i] = cmdZMScore, z.rank(r)
		default:
			s.kinds[i], s.idx[i] = cmdZRange, z.rank(r)
		}
	}
	return s
}

func runSrvPipeline(c *runCtx) (*result, error) {
	n := c.keyCount(spKeys)
	pipelines := c.scaled(spPipelinesPerSec, 500)
	warm := pipelines / 10
	ks := newKeySpace(c.seed)
	keys := ks.loaded(n)
	z := newZipf(n, 0.99)
	res := &result{Metrics: map[string]float64{}}
	var streams [srvWorkers]srvStream
	var d digest
	wantKeys := int64(n) // DBSIZE once every stream has run
	for g := range streams {
		streams[g] = genPipeline(c.seed, g, (warm+pipelines)*spDepth, z)
		d.addOps(streams[g].kinds, streams[g].idx)
		for _, k := range streams[g].kinds {
			if k == cmdZAddFresh {
				wantKeys++
			}
		}
	}
	res.Digest = uint64(d)

	ctl, err := newControl(c, ks)
	if err != nil {
		return nil, err
	}

	// One repetition: a fresh child (and so fresh memory), loaded over the
	// wire, driven by two connections. The traced run keeps its child for
	// the INFO readings and leaves the spans and recorded bytes behind.
	var (
		srv     *child
		workers []*srvWorker
		admin   *respConn
		sbs     []*spanBuf
		last    []*workerStats
		epoch   = time.Now()
	)
	repetition := func() (rep repStats, err error) {
		t0 := time.Now()
		if srv, err = startCtredis(c.ctredis); err != nil {
			return rep, err
		}
		rssEmpty, err := srv.rssBytes()
		if err != nil {
			return rep, err
		}
		if err := loadOverWire(srv.addr, keys, "s"); err != nil {
			return rep, err
		}
		rep.setupS = time.Since(t0).Seconds()
		workers = make([]*srvWorker, srvWorkers)
		for g := range workers {
			if workers[g], err = newSrvWorker(g, ks, keys, "s", spDepth, streams[g], srv.addr); err != nil {
				return rep, err
			}
		}
		if admin, err = dialResp(srv.addr); err != nil {
			return rep, err
		}
		if c.trace {
			// Worker 0 records the bytes of its first pipelines for the
			// resp and miniredis replays.
			workers[0].recordPipelines = min(recordedPipelines, warm)
			workers[0].rc.tee = &workers[0].replyBytes
			sbs = []*spanBuf{newSpanBuf(epoch, 0), newSpanBuf(epoch, 1)}
		}
		runPhase(workers, 0, warm, nil)
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return rep, err
		}
		last = runPhase(workers, warm, pipelines, sbs)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return rep, err
		}
		rss, err := srv.rssBytes()
		if err != nil {
			return rep, err
		}
		rep.measured(c, last)
		rep.cpuUS = (cpu1 - cpu0) * 1e6 / float64(res.tally(last))
		// A wrong final key count is charged to the run as failed ops.
		dbsize, err := admin.doInt("DBSIZE")
		if err != nil {
			return rep, err
		}
		if diff := dbsize - wantKeys; diff != 0 {
			res.Failed += max(diff, -diff)
		}
		rep.memB = float64(rss-rssEmpty) / float64(max(dbsize, 1))
		return rep, nil
	}
	closeRep := func() {
		for _, w := range workers {
			if w != nil {
				w.rc.close()
			}
		}
		if admin != nil {
			admin.close()
		}
		if srv != nil {
			srv.kill()
		}
	}
	defer closeRep()

	if !c.trace {
		var reps []repStats
		for i := 0; i < c.reps(); i++ {
			closeRep()
			rep, err := repetition()
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
		res.report(reps)
		ctl.finish(c, res)
		return res, nil
	}

	if _, err := repetition(); err != nil {
		return nil, err
	}
	lm := res.Metrics
	lm["trace.overhead_frac"] = traceOverhead(last)
	clientSpanMetrics(mergeSpans(sbs...), lm)
	if err := serverStatMetrics(admin, lm); err != nil {
		return nil, err
	}

	rec := workers[0]
	rp, root, done := beginReplay(epoch, srvWorkers)
	cmds := rec.recordPipelines * spDepth
	if err := replayResp(rp, root, rec.reqBytes.Bytes(), rec.replyBytes.Bytes(), cmds, spDepth, lm); err != nil {
		return nil, err
	}
	replayMetrics(rp, root, last, lm)
	lm["core.srv_ns_per_cmd"] = replayCoreCommands(rp, root, keys, ks, rec.st, cmds)
	inproc, err := replayInProcess(rp, root, keys, rec.reqBytes.Bytes(), rec.reqLens, spDepth)
	if err != nil {
		return nil, err
	}
	// What is left of an in-process command round trip once the replayed
	// resp and core costs are taken out: dispatch, locks, stats, syscalls,
	// scheduling — and the replay client's own share. An estimate.
	lm["miniredis.self_ns_per_cmd"] = inproc - lm["resp.parse_ns_per_cmd"] - lm["resp.write_ns_per_reply"] - lm["core.srv_ns_per_cmd"]
	done()

	ctl.finish(c, res)
	if lm["client.wait_us_per_pipeline"] > 0 {
		c.logf("core share of the server wait: %.1f%% (core.srv_ns_per_cmd x %d / client.wait_us_per_pipeline)",
			100*lm["core.srv_ns_per_cmd"]*spDepth/1e3/lm["client.wait_us_per_pipeline"], spDepth)
	}
	return res, finishTrace(c, res, append(sbs, rp)...)
}

// recordedPipelines is how many of worker 0's pipelines the traced run keeps
// byte-for-byte for the replays.
const recordedPipelines = 256
