package main

// srv_durable_group: ctredis with a data dir under -fsync group, background
// log rewrites running, then SIGKILL and a restart on the same directory.
// WAL append, the commit park (a fixed 2 ms pile-on window), fsync and
// rewrite dominate and the engine is negligible. Every acknowledged write
// must be there after the restart; each one that is not is a failed op.
// Latencies here are the sandbox's page cache, not a device's.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

const (
	sdLoaded = 20_000 // keys written over the wire, durably, during set-up
	sdDepth  = 8
	// sdPipelinesPerSec is the calibrated per-connection request rate: each
	// round trip waits out the 2 ms group window plus an fsync.
	sdPipelinesPerSec = 330
	// sdAutoRewriteBytes makes the log rewrite itself every 64 KiB of
	// appended records: at ~37 B per record a repetition's ~11k measured
	// writes cross it six times, so several background snapshot+compaction
	// cycles complete inside every repetition (the traced run counts them
	// as persist.rewrites).
	sdAutoRewriteBytes = 64 << 10
	sdVerifySample     = 10_000 // acked writes re-read after the restart
)

func durableArgs(dataDir string) []string {
	return []string{"-data-dir", dataDir, "-fsync", "group", "-auto-rewrite-bytes", strconv.Itoa(sdAutoRewriteBytes)}
}

// genDurable draws 75% ZADD of a fresh member, 20% ZADD updating one of the
// worker's own live members, 5% ZREM of its oldest live member. A worker
// only ever writes its own members, so the final score of each is known.
func genDurable(seed uint64, worker, cmds int) srvStream {
	r := newRNG(seed ^ uint64(0x7364+worker)<<32)
	s := srvStream{kinds: make([]uint8, cmds), idx: make([]uint32, cmds), ownUpdates: true}
	var added, removed uint32
	for i := range s.kinds {
		p := r.intn(100)
		switch {
		case p < 75 || added == removed:
			s.kinds[i], s.idx[i] = cmdZAddFresh, added
			added++
		case p < 95:
			s.kinds[i], s.idx[i] = cmdZAddUpdate, removed+uint32(r.intn(int(added-removed)))
		default:
			s.kinds[i], s.idx[i] = cmdZRem, removed
			removed++
		}
	}
	return s
}

// finalState replays the first executed commands of a stream: the score each
// of the worker's members must have, and how many of the oldest were removed.
func (st srvStream) finalState(executed int) (scores []uint64, removed uint32) {
	for seq := 0; seq < executed; seq++ {
		switch id := st.idx[seq]; st.kinds[seq] {
		case cmdZAddFresh:
			scores = append(scores, valueOf(id, 0))
		case cmdZAddUpdate:
			scores[id] = valueOf(id, seq)
		case cmdZRem:
			removed = id + 1
		}
	}
	return scores, removed
}

func runSrvDurable(c *runCtx) (*result, error) {
	n := c.keyCount(sdLoaded)
	pipelines := c.scaled(sdPipelinesPerSec, 150)
	warm := pipelines / 10
	cmds := (warm + pipelines) * sdDepth
	ks := newKeySpace(c.seed)
	keys := ks.loaded(n)
	res := &result{Metrics: map[string]float64{}}
	var streams [srvWorkers]srvStream
	var d digest
	for g := range streams {
		streams[g] = genDurable(c.seed, g, cmds)
		d.addOps(streams[g].kinds, streams[g].idx)
	}
	res.Digest = uint64(d)

	ctl, err := newControl(c, ks)
	if err != nil {
		return nil, err
	}
	lm := res.Metrics // per-layer metrics: filled by the traced run only
	epoch := time.Now()
	var sbs []*spanBuf
	var worker0 *srvWorker

	// One repetition: boot on an empty data dir, write the loaded keys
	// through the durable path, drive the two connections, then crash the
	// server, restart it on the same directory and re-read what it
	// acknowledged.
	repetition := func() (rep repStats, err error) {
		dataDir, err := os.MkdirTemp(c.workDir, "durable-")
		if err != nil {
			return rep, err
		}
		removeDir := func() { os.RemoveAll(dataDir) }
		atExit(removeDir)
		defer removeDir()
		t0 := time.Now()
		srv, err := startCtredis(c.ctredis, durableArgs(dataDir)...)
		if err != nil {
			return rep, err
		}
		defer func() { srv.kill() }()
		rssEmpty, err := srv.rssBytes()
		if err != nil {
			return rep, err
		}
		if err := loadOverWire(srv.addr, keys, "d"); err != nil {
			return rep, err
		}
		rep.setupS = time.Since(t0).Seconds()
		workers := make([]*srvWorker, srvWorkers)
		for g := range workers {
			if workers[g], err = newSrvWorker(g, ks, nil, "d", sdDepth, streams[g], srv.addr); err != nil {
				return rep, err
			}
			defer workers[g].rc.close()
		}
		worker0 = workers[0]

		runPhase(workers, 0, warm, nil)
		var rewrites *snapshotWatcher
		if c.trace {
			sbs = []*spanBuf{newSpanBuf(epoch, 0), newSpanBuf(epoch, 1)}
			rewrites = watchSnapshots(dataDir)
		}
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return rep, err
		}
		ws := runPhase(workers, warm, pipelines, sbs)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return rep, err
		}
		rss, err := srv.rssBytes()
		if err != nil {
			return rep, err
		}
		rep.measured(c, ws)
		rep.cpuUS = (cpu1 - cpu0) * 1e6 / float64(res.tally(ws))
		var diskBytes int64
		if c.trace {
			rewrites.stop()
			lm["persist.rewrites"] = float64(rewrites.count())
			lm["trace.overhead_frac"] = traceOverhead(ws)
			// Ten slices even of a short phase: a rewrite's stall must not
			// be averaged into one p99.
			_, p99, worst, _ := slicedLatency(ws, 10)
			lm["persist.rewrite_stall_ratio"] = worst / p99
			admin, err := dialResp(srv.addr)
			if err != nil {
				return rep, err
			}
			defer admin.close()
			if err := serverStatMetrics(admin, lm); err != nil {
				return rep, err
			}
			if err := persistInfoMetrics(admin, float64(n+srvWorkers*cmds), lm); err != nil {
				return rep, err
			}
			diskBytes = dirBytes(dataDir)
		}

		// The crash: SIGKILL (no shutdown path runs), then a restart on
		// the same directory.
		srv.kill()
		if c.beforeRestart != nil {
			c.beforeRestart(dataDir)
		}
		tBoot := time.Now()
		if srv, err = startCtredis(c.ctredis, durableArgs(dataDir)...); err != nil {
			return rep, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recoverS := time.Since(tBoot).Seconds()
		dbsize, lost, err := verifyRecovered(srv.addr, ks, streams[:], cmds, n)
		if err != nil {
			return rep, err
		}
		res.Failed += lost
		rep.memB = float64(rss-rssEmpty) / float64(max(dbsize, 1))
		if c.trace {
			lm["persist.disk_bytes_per_live_key"] = float64(diskBytes) / float64(max(dbsize, 1))
			lm["persist.recover_s"] = recoverS
			lm["persist.recover_keys_per_s"] = float64(dbsize) / recoverS
		}
		return rep, nil
	}

	if !c.trace {
		var reps []repStats
		for i := 0; i < c.reps(); i++ {
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
	clientSpanMetrics(mergeSpans(sbs...), lm)
	rp, root, done := beginReplay(epoch, srvWorkers)
	if lm["persist.append_ns_per_op"], err = replayWALAppend(rp, root, c.workDir, worker0, cmds); err != nil {
		return nil, err
	}
	done()

	ctl.finish(c, res)
	c.logf("persist latencies are the sandbox's page cache, not a device's")
	return res, finishTrace(c, res, append(sbs, rp)...)
}

// persistInfoMetrics reads the WAL's own histograms from INFO persistence.
// writes is how many records this boot was asked to log.
func persistInfoMetrics(rc *respConn, writes float64, lm map[string]float64) error {
	p, err := info(rc, "persistence")
	if err != nil {
		return err
	}
	lm["persist.commit_wait_us_p50"] = infoField(p, "aof_commit_wait_p50_us", "")
	lm["persist.commit_wait_us_p99"] = infoField(p, "aof_commit_wait_p99_us", "")
	lm["persist.fsync_us_p50"] = infoField(p, "aof_fsync_p50_us", "")
	lm["persist.fsync_us_p99"] = infoField(p, "aof_fsync_p99_us", "")
	lm["persist.fsyncs_per_kop"] = infoField(p, "aof_fsync_count", "") / (writes / 1000)
	lm["persist.group_batch_p50"] = infoField(p, "aof_group_batch_p50", "")
	lm["persist.wal_bytes_per_op"] = infoField(p, "aof_appended_bytes", "") / writes
	return nil
}

// verifyRecovered checks the restarted server against the acknowledged
// writes: DBSIZE must equal the key count the streams imply, and a sample of
// sdVerifySample of the workers' members must read back with their final
// score (or as absent, if removed). It returns DBSIZE and the number of
// lost or wrong writes.
func verifyRecovered(addr string, ks keySpace, streams []srvStream, executedCmds, loaded int) (dbsize, lost int64, err error) {
	rc, err := dialResp(addr)
	if err != nil {
		return 0, 0, err
	}
	defer rc.close()
	want := int64(loaded)
	type member struct {
		g, id uint32
		score uint64
		live  bool
	}
	var all []member
	for g, st := range streams {
		scores, removed := st.finalState(executedCmds)
		want += int64(len(scores)) - int64(removed)
		for id, s := range scores {
			all = append(all, member{uint32(g), uint32(id), s, uint32(id) >= removed})
		}
	}
	if dbsize, err = rc.doInt("DBSIZE"); err != nil {
		return 0, 0, err
	}
	if diff := dbsize - want; diff != 0 {
		lost += max(diff, -diff)
	}
	// An even stride over every member, always including the newest ones:
	// the tail of the log is what a lost fsync would take.
	stride := max(1, len(all)/sdVerifySample)
	var sample []member
	for i := len(all) - 1; i >= 0; i -= stride {
		sample = append(sample, all[i])
	}
	const depth = 128
	var kb [keyLen]byte
	var r reply
	for off := 0; off < len(sample); off += depth {
		batch := sample[off:min(off+depth, len(sample))]
		for _, m := range batch {
			ks.put(kb[:], spaceFresh+uint64(m.g), uint64(m.id))
			rc.queue(bZSCORE, []byte("d"+strconv.Itoa(int(m.id%srvSets))), kb[:])
		}
		if err := rc.send(); err != nil {
			return 0, 0, err
		}
		for _, m := range batch {
			if err := rc.read(&r); err != nil {
				return 0, 0, err
			}
			v, found := scoreOf(&r)
			if found != m.live || (m.live && v != m.score) {
				lost++
			}
		}
	}
	return dbsize, lost, nil
}

// dirBytes is the size of every file under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}

// snapshotWatcher counts completed log rewrites from outside: each one
// leaves a new snap-<lsn>.snap in the data dir.
type snapshotWatcher struct {
	seen map[string]bool
	quit chan struct{}
	wg   sync.WaitGroup
}

func watchSnapshots(dir string) *snapshotWatcher {
	w := &snapshotWatcher{seen: map[string]bool{}, quit: make(chan struct{})}
	scan := func() []string {
		names, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		return names
	}
	before := map[string]bool{}
	for _, name := range scan() {
		before[name] = true
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, name := range scan() {
				if !before[name] {
					w.seen[name] = true
				}
			}
			select {
			case <-w.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *snapshotWatcher) stop() {
	close(w.quit)
	w.wg.Wait()
}

// count is valid after stop.
func (w *snapshotWatcher) count() int { return len(w.seen) }
