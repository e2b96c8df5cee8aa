package main

// Shared machinery of the srv_* workloads: pre-generated command streams,
// the closed-loop pipelining worker that sends them to a ctredis child and
// verifies every reply, wire loading, and INFO parsing.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	srvWorkers = 2 // connections; the box has 2 cores
	srvSets    = 8 // keys spread round-robin over this many sorted sets
	// zmStride keeps the 8 members of one ZMSCORE in one set: the key count
	// is a multiple of srvSets and so is the stride.
	zmMembers = 8
	zmStride  = srvSets * 7919
	zrLimit   = 20
)

const (
	cmdZScore     = iota
	cmdZAddUpdate // a member that exists: reply 0
	cmdZAddFresh  // the worker's next never-used member: reply 1
	cmdZMScore
	cmdZRange
	cmdZRem // the worker's oldest live fresh member: reply 1
)

// srvStream is one connection's pre-generated commands. idx is a loaded key
// for commands on the shared loaded population, or a counter in the
// worker's own fresh-key space.
type srvStream struct {
	kinds []uint8
	idx   []uint32
	// ownUpdates says cmdZAddUpdate targets the worker's own fresh keys
	// (srv_durable_group, where every final score must be predictable)
	// instead of the loaded population.
	ownUpdates bool
}

// srvWorker drives one connection.
type srvWorker struct {
	g     int
	ks    keySpace
	keys  [][]byte // loaded population (nil when the workload has none)
	depth int
	st    srvStream
	rc    *respConn
	dead  bool // a transport error or timeout killed the connection

	// Recording for the layer replays (worker 0 of a traced run): the exact
	// request bytes of the first recordPipelines pipelines; the replies
	// arrive through rc.tee.
	recordPipelines int
	reqBytes        bytes.Buffer
	reqLens         []int // byte length of each recorded pipeline
	replyBytes      bytes.Buffer

	sets   [srvSets][]byte
	kb     [keyLen]byte
	num    []byte
	replyV reply
}

func newSrvWorker(g int, ks keySpace, keys [][]byte, prefix string, depth int, st srvStream, addr string) (*srvWorker, error) {
	rc, err := dialResp(addr)
	if err != nil {
		return nil, err
	}
	w := &srvWorker{g: g, ks: ks, keys: keys, depth: depth, st: st, rc: rc}
	for i := range w.sets {
		w.sets[i] = []byte(prefix + strconv.Itoa(i))
	}
	return w, nil
}

var (
	bZADD    = []byte("ZADD")
	bZSCORE  = []byte("ZSCORE")
	bZMSCORE = []byte("ZMSCORE")
	bZRANGE  = []byte("ZRANGEBYLEX")
	bZREM    = []byte("ZREM")
	bLimit   = []byte(strconv.Itoa(zrLimit))
)

// freshKey is member id of the worker's own key space; the bytes are valid
// until the next call.
func (w *srvWorker) freshKey(id uint32) []byte {
	w.ks.put(w.kb[:], spaceFresh+uint64(w.g), uint64(id))
	return w.kb[:]
}

// queue encodes command seq into the pending pipeline.
func (w *srvWorker) queue(seq int) {
	kind, id := w.st.kinds[seq], w.st.idx[seq]
	set := w.sets[id%srvSets]
	switch kind {
	case cmdZScore:
		w.rc.queue(bZSCORE, set, w.keys[id])
	case cmdZAddUpdate:
		w.num = strconv.AppendUint(w.num[:0], valueOf(id, seq), 10)
		if w.st.ownUpdates {
			w.rc.queue(bZADD, set, w.freshKey(id), w.num)
		} else {
			w.rc.queue(bZADD, set, w.keys[id], w.num)
		}
	case cmdZAddFresh:
		w.num = strconv.AppendUint(w.num[:0], valueOf(id, 0), 10)
		w.rc.queue(bZADD, set, w.freshKey(id), w.num)
	case cmdZMScore:
		args := [2 + zmMembers][]byte{bZMSCORE, set}
		for j := 0; j < zmMembers; j++ {
			args[2+j] = w.keys[zmMember(id, j, len(w.keys))]
		}
		w.rc.queue(args[:]...)
	case cmdZRange:
		w.rc.queue(bZRANGE, set, w.keys[id], bLimit)
	case cmdZRem:
		w.rc.queue(bZREM, set, w.freshKey(id))
	}
}

func zmMember(base uint32, j, n int) uint32 { return uint32((int(base) + j*zmStride) % n) }

func scoreOf(r *reply) (uint64, bool) {
	if r.kind != '$' || r.b == nil {
		return 0, false
	}
	v, err := strconv.ParseUint(string(r.b), 10, 64)
	return v, err == nil
}

// verify checks the reply to command seq against what the stream implies.
func (w *srvWorker) verify(seq int, r *reply) bool {
	kind, id := w.st.kinds[seq], w.st.idx[seq]
	switch kind {
	case cmdZScore:
		v, ok := scoreOf(r)
		return ok && valueMatches(v, id)
	case cmdZAddUpdate:
		return r.kind == ':' && r.n == 0
	case cmdZAddFresh, cmdZRem:
		return r.kind == ':' && r.n == 1
	case cmdZMScore:
		if r.kind != '*' || len(r.arr) != zmMembers {
			return false
		}
		for j := range r.arr {
			v, ok := scoreOf(&r.arr[j])
			if !ok || !valueMatches(v, zmMember(id, j, len(w.keys))) {
				return false
			}
		}
		return true
	case cmdZRange:
		// The start member is a loaded key, which is never removed: it
		// comes first, and members ascend.
		if r.kind != '*' || len(r.arr) == 0 || len(r.arr) > zrLimit || !bytes.Equal(r.arr[0].b, w.keys[id]) {
			return false
		}
		for j := 1; j < len(r.arr); j++ {
			if bytes.Compare(r.arr[j-1].b, r.arr[j].b) >= 0 {
				return false
			}
		}
		return true
	}
	return false
}

// phase sends pipelines [first, first+count) and verifies every reply. The
// latency unit is one pipeline round trip. With sb set, one pipeline in
// traceSample of every other slice is split into encode+write, wait (write
// done to first reply byte) and read+decode spans.
func (w *srvWorker) phase(first, count int, sb *spanBuf) *workerStats {
	ws := newWorkerStats(count, 1)
	for p := 0; p < count; p++ {
		ws.mark(p)
		if w.dead {
			ws.ops += int64(w.depth)
			ws.failed += int64(w.depth)
			continue
		}
		seq0 := (first + p) * w.depth
		sampled := sb != nil && p%traceSample == 0 && ws.tracedSlice()
		t0 := time.Now()
		for j := 0; j < w.depth; j++ {
			w.queue(seq0 + j)
		}
		recording := first+p < w.recordPipelines
		if recording {
			w.reqBytes.Write(w.rc.wbuf)
			w.reqLens = append(w.reqLens, len(w.rc.wbuf))
		} else {
			w.rc.tee = nil
		}
		err := w.rc.send()
		var tSent, tFirst time.Time
		if sampled && err == nil {
			tSent = time.Now()
			err = w.rc.awaitFirstByte()
			tFirst = time.Now()
		}
		got := 0
		for ; got < w.depth && err == nil; got++ {
			if err = w.rc.read(&w.replyV); err == nil && !w.verify(seq0+got, &w.replyV) {
				ws.failed++
			}
		}
		t1 := time.Now()
		ws.ops += int64(w.depth)
		if err != nil {
			// Timed out or lost: the unanswered commands fail, and so does
			// everything this connection had left to send.
			ws.failed += int64(w.depth - got)
			w.dead = true
			w.rc.close()
			continue
		}
		ws.lat = append(ws.lat, int64(t1.Sub(t0)))
		if sampled {
			req := sb.add(0, int64(first+p), "request", t0, t1)
			sb.add(req, int64(first+p), "client.encode_write", t0, tSent)
			sb.add(req, int64(first+p), "client.wait", tSent, tFirst)
			sb.add(req, int64(first+p), "client.read_decode", tFirst, t1)
		}
	}
	ws.mark(count)
	return ws
}

// runPhase runs one phase on every worker concurrently.
func runPhase(workers []*srvWorker, first, count int, sbs []*spanBuf) []*workerStats {
	ws := make([]*workerStats, len(workers))
	var wg sync.WaitGroup
	for g, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb *spanBuf
			if sbs != nil {
				sb = sbs[g]
			}
			ws[g] = w.phase(first, count, sb)
		}()
	}
	wg.Wait()
	return ws
}

// clientSpanMetrics turns the traced phase's spans into the client.* layer
// metrics and the server's share of the request.
func clientSpanMetrics(spans []span, lm map[string]float64) {
	t := summarize(spans)
	per := func(name string) float64 {
		if s := t[name]; s != nil && s.Count > 0 {
			return float64(s.Total.Microseconds()) / float64(s.Count)
		}
		return 0
	}
	lm["client.encode_write_us_per_pipeline"] = per("client.encode_write")
	lm["client.wait_us_per_pipeline"] = per("client.wait")
	lm["client.read_decode_us_per_pipeline"] = per("client.read_decode")
	if req := t["request"]; req != nil && req.Total > 0 {
		lm["trace.layer_share_of_request"] = float64(t["client.wait"].Total) / float64(req.Total)
	}
}

// loadOverWire ZADDs loaded keys [0, n) round-robin across the sets over one
// connection, in pipelines of loadDepth, and checks every reply is 1.
func loadOverWire(addr string, keys [][]byte, prefix string) error {
	const loadDepth = 256
	rc, err := dialResp(addr)
	if err != nil {
		return err
	}
	defer rc.close()
	var sets [srvSets][]byte
	for i := range sets {
		sets[i] = []byte(prefix + strconv.Itoa(i))
	}
	var num []byte
	var r reply
	for off := 0; off < len(keys); off += loadDepth {
		end := min(off+loadDepth, len(keys))
		for i := off; i < end; i++ {
			num = strconv.AppendUint(num[:0], valueOf(uint32(i), 0), 10)
			rc.queue(bZADD, sets[i%srvSets], keys[i], num)
		}
		if err := rc.send(); err != nil {
			return err
		}
		for i := off; i < end; i++ {
			if err := rc.read(&r); err != nil {
				return err
			}
			if r.kind != ':' || r.n != 1 {
				return fmt.Errorf("load: ZADD of key %d replied %q %d %s", i, r.kind, r.n, r.b)
			}
		}
	}
	return nil
}

// info fetches one INFO section and returns its key:value lines.
func info(rc *respConn, section string) (map[string]string, error) {
	r, err := rc.do("INFO", section)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, line := range strings.Split(string(r.b), "\r\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			m[k] = v
		}
	}
	return m, nil
}

// infoField reads a number from an INFO map; field selects a "k=v" item of a
// comma-separated value ("" for a plain value). Missing lines read as 0: the
// server omits percentile lines of empty histograms.
func infoField(m map[string]string, key, field string) float64 {
	v := m[key]
	if field != "" {
		for _, item := range strings.Split(v, ",") {
			if k, fv, ok := strings.Cut(item, "="); ok && k == field {
				v = fv
			}
		}
	}
	f, _ := strconv.ParseFloat(v, 64)
	return f
}

// serverStatMetrics reads the server's own per-command counters over RESP.
func serverStatMetrics(rc *respConn, lm map[string]float64) error {
	cs, err := info(rc, "commandstats")
	if err != nil {
		return err
	}
	ls, err := info(rc, "latencystats")
	if err != nil {
		return err
	}
	errs := 0.0
	for k := range cs {
		errs += infoField(cs, k, "errors")
	}
	for _, f := range []string{"zadd", "zscore", "zmscore", "zrangebylex"} {
		lm["miniredis.usec_per_call."+f] = infoField(cs, "cmdstat_"+f, "usec_per_call")
	}
	lm["miniredis.p99_us.zadd"] = infoField(ls, "latency_percentiles_usec_zadd", "p99")
	lm["miniredis.p99_us.zscore"] = infoField(ls, "latency_percentiles_usec_zscore", "p99")
	lm["miniredis.error_replies"] = errs
	n, err := rc.doInt("SLOWLOG", "LEN")
	lm["miniredis.slowlog_len"] = float64(n)
	return err
}
