package miniredis

// The command path's allocation contract as a test: a pipeline read through
// resp.Reader, dispatched and encoded into io.Discard — everything serve
// does but the socket — allocates nothing in resp or miniredis themselves.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"testing"

	cuckootrie "repro"
	"repro/internal/index"
	"repro/internal/resp"
)

// loopConn hands out the same pipeline on every Read, like a client that
// sends it again after each round of replies.
type loopConn []byte

func (l loopConn) Read(p []byte) (int, error) { return copy(p, l), nil }

func TestCommandPathZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	const depth = 32
	srv := NewServerExec(func(c int) index.Index {
		return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
	}, 1<<10, ExecSerial)
	// A GC pause past the slowlog threshold would allocate an entry
	// mid-count.
	srv.SetSlowlogThreshold(-1)
	keys := make([][]byte, 8*depth)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("member:%06d", i))
		vals[i] = uint64(i)
	}
	sets := [2][]byte{[]byte("s0"), []byte("s1")}
	for _, set := range sets {
		if _, err := srv.Preload(string(set), keys, vals); err != nil {
			t.Fatal(err)
		}
	}

	// pipelineAllocs serves the depth-command pipeline cmd(0..depth-1) the
	// way serve does and returns allocations per pipeline.
	pipelineAllocs := func(name string, cmd func(i int) [][]byte) float64 {
		var pipe bytes.Buffer
		pw := resp.NewWriter(&pipe)
		for i := 0; i < depth; i++ {
			pw.WriteCommand(cmd(i)...)
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
		r := resp.NewReaderSize(loopConn(pipe.Bytes()), connBufSize)
		w := resp.NewWriterSize(io.Discard, connBufSize)
		cs := newConnState()
		batch := make([]command, 0, maxPipelineBatch)
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if batch, err = readBatch(r, batch[:0]); err != nil || len(batch) != depth {
				t.Fatalf("%s: read %d commands, err %v", name, len(batch), err)
			}
			srv.dispatch(w, batch, cs)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		if n := w.ErrorsWritten(); n != 0 {
			t.Fatalf("%s: %d error replies", name, n)
		}
		return allocs
	}

	for _, tc := range []struct {
		name string
		cmd  func(i int) [][]byte
	}{
		{"ZSCORE hit", func(i int) [][]byte {
			return [][]byte{[]byte("ZSCORE"), sets[i%2], keys[i]}
		}},
		{"ZSCORE miss", func(i int) [][]byte {
			return [][]byte{[]byte("zscore"), sets[i%2], []byte("absent:" + strconv.Itoa(i))}
		}},
		{"ZSCORE collapsed run", func(i int) [][]byte {
			return [][]byte{[]byte("ZSCORE"), sets[0], keys[i]}
		}},
		{"ZMSCORE x8", func(i int) [][]byte {
			return append([][]byte{[]byte("ZMSCORE"), sets[i%2]}, keys[8*i:8*i+8]...)
		}},
	} {
		if a := pipelineAllocs(tc.name, tc.cmd); a != 0 {
			t.Errorf("%s: %v allocs per %d-deep pipeline, want 0", tc.name, a, depth)
		}
	}

	// ZADD updates and ZRANGEBYLEX may allocate only what the engine's own
	// calls do.
	var ix [2]index.Index
	for i, set := range sets {
		var ok bool
		if ix[i], ok = srv.ks.lookup(set); !ok {
			t.Fatalf("set %s missing", set)
		}
	}
	got := pipelineAllocs("ZADD update", func(i int) [][]byte {
		return [][]byte{[]byte("ZADD"), sets[i%2], keys[i], []byte("7")}
	})
	engine := testing.AllocsPerRun(50, func() {
		for i := 0; i < depth; i++ {
			ix[i%2].Set(keys[i], 7)
		}
	})
	if got > engine {
		t.Errorf("ZADD update: %v allocs per pipeline, the engine's Sets alone %v", got, engine)
	}
	got = pipelineAllocs("ZRANGEBYLEX", func(i int) [][]byte {
		return [][]byte{[]byte("ZRANGEBYLEX"), sets[i%2], keys[i], []byte("20")}
	})
	visit := func([]byte, uint64) bool { return true }
	engine = testing.AllocsPerRun(50, func() {
		for i := 0; i < depth; i++ {
			ix[i%2].Scan(keys[i], 20, visit)
		}
	})
	if got > engine {
		t.Errorf("ZRANGEBYLEX: %v allocs per pipeline, the engine's Scans alone %v", got, engine)
	}
}

// batchOf classifies commands into a batch, as readBatch does.
func batchOf(cmds ...[][]byte) []command {
	batch := make([]command, len(cmds))
	for i, args := range cmds {
		batch[i] = command{classify(args[0]), args}
	}
	return batch
}

// TestScratchReleased: per-connection scratch does not outlive the command
// that grew it. A ZRANGEBYLEX reply larger than maxScanScratch drops its
// member arena once written, and a collapsed ZSCORE run leaves no borrowed
// argument in the key scratch to pin the read buffer.
func TestScratchReleased(t *testing.T) {
	srv := NewServerExec(trieFactory, 1<<10, ExecSerial)
	keys := make([][]byte, 2048)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("member:%057d", i)) // 64 bytes
		vals[i] = uint64(i)
	}
	if _, err := srv.Preload("s", keys, vals); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := resp.NewWriter(&out)
	cs := newConnState()
	srv.dispatch(w, batchOf([][]byte{[]byte("ZRANGEBYLEX"), []byte("s"), []byte(""), []byte("2048")}), cs)
	if cap(cs.members) > maxScanScratch || cap(cs.ends) > maxScanScratch/8 {
		t.Errorf("after a %d-byte scan the connection keeps %d + %d scratch entries",
			len(keys)*len(keys[0]), cap(cs.members), cap(cs.ends))
	}
	srv.dispatch(w, batchOf(
		[][]byte{[]byte("ZSCORE"), []byte("s"), keys[0]},
		[][]byte{[]byte("ZSCORE"), []byte("s"), keys[1]},
	), cs)
	if len(cs.keys) != 2 {
		t.Fatalf("collapsed run used %d keys of scratch, want 2", len(cs.keys))
	}
	for i, k := range cs.keys {
		if k != nil {
			t.Errorf("key scratch %d still holds %q", i, k)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := w.ErrorsWritten(); n != 0 {
		t.Fatalf("%d error replies: %q", n, out.Bytes())
	}
	r := resp.NewReader(&out)
	if v, err := r.ReadReply(); err != nil || len(v.([]interface{})) != len(keys) {
		t.Fatalf("ZRANGEBYLEX reply: %v", err)
	}
}
