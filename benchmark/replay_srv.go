package main

// Layer replays for the srv_* workloads: the bytes and commands a traced
// run recorded go back through resp, core, metrics, persist and an
// in-process miniredis, each alone, as child spans of the "replay" root.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"

	cuckootrie "repro"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/persist"
	"repro/internal/resp"
)

// replayRounds repeats the short recorded byte streams so each resp timing
// covers ~100k commands.
const replayRounds = 16

// serverCapacity is ctredis's default -capacity: the per-set CapacityHint
// the child's tries were built with.
const serverCapacity = 1 << 20

// replayResp runs the exact request bytes through resp.Reader.ReadCommand
// and the exact reply bytes through resp.Writer and resp.Reader.ReadReply.
func replayResp(rp *spanBuf, root uint32, req, replies []byte, cmds, depth int, lm map[string]float64) error {
	var perr error
	parse := func() {
		rd := resp.NewReader(bytes.NewReader(req))
		for i := 0; i < cmds && perr == nil; i++ {
			_, perr = rd.ReadCommand()
		}
	}
	ns := timed(rp, root, "replay.resp.parse", func() {
		for r := 0; r < replayRounds; r++ {
			parse()
		}
	})
	if perr != nil {
		return fmt.Errorf("replay: resp.ReadCommand on recorded requests: %w", perr)
	}
	total := float64(cmds * replayRounds)
	lm["resp.parse_ns_per_cmd"] = ns / total
	lm["resp.parse_mb_per_s"] = float64(len(req)*replayRounds) / 1e6 / (ns / 1e9)
	rd := resp.NewReader(bytes.NewReader(req))
	lm["resp.allocs_per_cmd"] = allocsPer(cmds-1, func(int) { rd.ReadCommand() })

	// Decode the recorded replies once with the benchmark's own parser,
	// then time the server-side encoder over them, flushing per pipeline
	// as the server does.
	br := bufio.NewReader(bytes.NewReader(replies))
	recorded := make([]reply, cmds)
	for i := range recorded {
		if err := readReply(br, &recorded[i]); err != nil {
			return fmt.Errorf("replay: recorded reply %d: %w", i, err)
		}
	}
	var werr error
	ns = timed(rp, root, "replay.resp.write", func() {
		w := resp.NewWriter(io.Discard)
		for r := 0; r < replayRounds; r++ {
			for i := range recorded {
				emit(w, &recorded[i])
				if (i+1)%depth == 0 && werr == nil {
					werr = w.Flush()
				}
			}
		}
	})
	if werr != nil {
		return werr
	}
	lm["resp.write_ns_per_reply"] = ns / total
	ns = timed(rp, root, "replay.resp.readreply", func() {
		for r := 0; r < replayRounds; r++ {
			rd := resp.NewReader(bytes.NewReader(replies))
			for i := 0; i < cmds && perr == nil; i++ {
				_, perr = rd.ReadReply()
			}
		}
	})
	lm["resp.readreply_ns_per_reply"] = ns / total
	return perr
}

// emit writes a recorded reply through the server's encoder.
func emit(w *resp.Writer, r *reply) {
	switch r.kind {
	case ':':
		w.WriteInt(r.n)
	case '$':
		w.WriteBulk(r.b)
	case '*':
		w.WriteArrayHeader(len(r.arr))
		for i := range r.arr {
			emit(w, &r.arr[i])
		}
	case '+':
		w.WriteSimple(string(r.b))
	case '-':
		w.WriteErrorCode(string(r.b))
	}
}

// replayMetrics feeds the traced phase's latency samples to the histogram
// every server command records into, and times a snapshot of it.
func replayMetrics(rp *spanBuf, root uint32, ws []*workerStats, lm map[string]float64) {
	var samples []int64
	for _, w := range ws {
		samples = append(samples, w.lat...)
	}
	if len(samples) == 0 {
		return
	}
	const records = 1_000_000
	h := metrics.New()
	ns := timed(rp, root, "replay.metrics.record", func() {
		for i := 0; i < records; i++ {
			h.RecordDuration(samples[i%len(samples)])
		}
	})
	lm["metrics.record_ns_per_sample"] = ns / records
	const snaps = 200
	var sink uint64
	ns = timed(rp, root, "replay.metrics.snapshot", func() {
		for i := 0; i < snaps; i++ {
			sink += h.Snapshot().Quantile(0.99)
		}
	})
	_ = sink
	lm["metrics.snapshot_us"] = ns / snaps / 1e3
}

// engineSets builds the server's keyspace as bare tries — one per set, with
// the server's default capacity — holding the loaded keys.
func engineSets(keys [][]byte) [srvSets]*cuckootrie.Trie {
	var sets [srvSets]*cuckootrie.Trie
	for i := range sets {
		sets[i] = cuckootrie.New(cuckootrie.Config{CapacityHint: serverCapacity, AutoResize: true})
	}
	for i, k := range keys {
		sets[i%srvSets].Set(k, valueOf(uint32(i), 0))
	}
	return sets
}

// replayCoreCommands executes the recorded commands as bare engine calls —
// what miniredis asks of core, with nothing around it — and returns ns per
// command.
func replayCoreCommands(rp *spanBuf, root uint32, keys [][]byte, ks keySpace, st srvStream, cmds int) float64 {
	sets := engineSets(keys)
	var kb [keyLen]byte
	var members [zmMembers][]byte
	var vals [zmMembers]uint64
	var found [zmMembers]bool
	var sink uint64
	run := func(freshSpace uint64) {
		for seq := 0; seq < cmds; seq++ {
			kind, id := st.kinds[seq], st.idx[seq]
			t := sets[id%srvSets]
			switch kind {
			case cmdZScore:
				v, _ := t.Get(keys[id])
				sink += v
			case cmdZAddUpdate:
				t.Set(keys[id], valueOf(id, seq))
			case cmdZAddFresh:
				ks.put(kb[:], freshSpace, uint64(id))
				t.Set(kb[:], valueOf(id, 0))
			case cmdZMScore:
				for j := range members {
					members[j] = keys[zmMember(id, j, len(keys))]
				}
				t.MultiGet(members[:], vals[:], found[:])
			case cmdZRange:
				t.Scan(keys[id], zrLimit, func(_ []byte, v uint64) bool { sink += v; return true })
			}
		}
	}
	// An untimed pass first, inserting into another key space: the server
	// had run its warm-up before anything was measured, and the fresh
	// tables' first-touch page faults are not core's cost per command.
	run(spaceFresh + 8)
	ns := timed(rp, root, "replay.core.commands", func() { run(spaceFresh) })
	_ = sink
	return ns / float64(cmds)
}

// replayInProcess sends the recorded pipelines to a miniredis server inside
// this process (serial executor, ctredis's default; same engine factory and
// capacity) over loopback TCP, and returns ns per command.
func replayInProcess(rp *spanBuf, root uint32, keys [][]byte, req []byte, reqLens []int, depth int) (float64, error) {
	srv := miniredis.NewServerExec(func(c int) index.Index {
		return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
	}, serverCapacity, miniredis.ExecSerial)
	defer srv.Close() //ctvet:ignore memory-only server: Close has no WAL to flush
	var perSet [srvSets][][]byte
	var perVal [srvSets][]uint64
	for i, k := range keys {
		perSet[i%srvSets] = append(perSet[i%srvSets], k)
		perVal[i%srvSets] = append(perVal[i%srvSets], valueOf(uint32(i), 0))
	}
	for s := range perSet {
		if _, err := srv.Preload("s"+strconv.Itoa(s), perSet[s], perVal[s]); err != nil {
			return 0, err
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var r reply
	var rerr error
	run := func() {
		off := 0
		for _, n := range reqLens {
			if _, rerr = conn.Write(req[off : off+n]); rerr != nil {
				return
			}
			off += n
			for j := 0; j < depth; j++ {
				if rerr = readReply(br, &r); rerr != nil {
					return
				}
			}
		}
	}
	// As in replayCoreCommands, an untimed pass takes the first-touch page
	// faults; in the timed pass the fresh ZADDs of the first are updates.
	run()
	ns := timed(rp, root, "replay.miniredis.inprocess", run)
	if rerr != nil {
		return 0, fmt.Errorf("replay: in-process miniredis: %w", rerr)
	}
	return ns / float64(len(reqLens)*depth), nil
}

// replayWALAppend appends the recorded writes to a fresh WAL under policy
// "no" — encode, CRC and buffered write, no fsync — and returns ns per op.
func replayWALAppend(rp *spanBuf, root uint32, workDir string, w *srvWorker, cmds int) (float64, error) {
	dir, err := os.MkdirTemp(workDir, "walreplay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncNo})
	if err != nil {
		return 0, err
	}
	var aerr error
	ns := timed(rp, root, "replay.persist.append", func() {
		for seq := 0; seq < cmds && aerr == nil; seq++ {
			kind, id := w.st.kinds[seq], w.st.idx[seq]
			op, val := persist.OpSet, valueOf(id, seq)
			if kind == cmdZRem {
				op, val = persist.OpDelete, 0
			}
			_, aerr = wal.Append(op, string(w.sets[id%srvSets]), w.freshKey(id), val)
		}
	})
	if cerr := wal.Close(); aerr == nil {
		aerr = cerr
	}
	return ns / float64(cmds), aerr
}
