package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/resp"
)

// Target is the store a replica session applies the primary's log to. The
// mini-Redis server implements it; the session guarantees single-goroutine,
// LSN-ordered calls.
type Target interface {
	// FlushAll drops every set — a full sync replaces the whole keyspace,
	// and an OpFlushAll record replicates a primary-side FLUSHALL.
	FlushAll()
	// LoadSnapshot bulk-loads a full-sync image, one set per SnapshotSet
	// (the same shape crash recovery bulk-loads, so untrained range
	// routers train from the sync stream exactly as they do from a local
	// snapshot).
	LoadSnapshot(sets []persist.SnapshotSet) error
	// ApplyBatch applies decoded records in order. Keys and set names are
	// owned by the batch (already copied off the wire).
	ApplyBatch(recs []persist.Record) error
}

// ReplicaConfig configures a replica session.
type ReplicaConfig struct {
	// Addr is the primary's RESP address.
	Addr string
	// ListenAddr advertises this replica's own serving address to the
	// primary (REPLCONF listening-port) so INFO can name it; optional.
	ListenAddr string
	// Target receives the replicated state.
	Target Target
	// ResumeFrom seeds the applied LSN: a replica re-attaching to the same
	// primary offers it in PSYNC for a partial resync. 0 for a fresh sync.
	ResumeFrom uint64
	// ReconnectDelay is the pause between connection attempts; 0 means
	// 100 ms.
	ReconnectDelay time.Duration
}

// ReplicaStats counts a session's sync history — what the partial-sync
// tests assert: resuming applies each record exactly once (Records is
// exact, not at-least), and falling behind retention shows up as an extra
// full sync rather than an error.
type ReplicaStats struct {
	FullSyncs    int
	PartialSyncs int
	Records      uint64 // records applied (snapshot keys not included)
	SnapshotKeys uint64 // keys bulk-loaded by full syncs
}

// Replica is a running replica session: a background loop that connects to
// the primary, syncs, applies the record stream, and reconnects (resuming
// from its applied LSN) whenever the link drops.
type Replica struct {
	cfg     ReplicaConfig
	applied atomic.Uint64
	linkUp  atomic.Bool
	stop    chan struct{}
	done    chan struct{}

	mu    sync.Mutex
	conn  net.Conn // current connection, for Stop to unblock reads
	stats ReplicaStats
}

// StartReplica starts replicating from cfg.Addr into cfg.Target. Stop the
// returned session to detach.
func StartReplica(cfg ReplicaConfig) *Replica {
	if cfg.ReconnectDelay <= 0 {
		cfg.ReconnectDelay = 100 * time.Millisecond
	}
	r := &Replica{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	r.applied.Store(cfg.ResumeFrom)
	go r.run()
	return r
}

// Stop detaches: the session's connection is closed and its loop exits.
// The target keeps whatever state was applied.
func (r *Replica) Stop() {
	r.mu.Lock()
	select {
	case <-r.stop:
		r.mu.Unlock()
		<-r.done
		return
	default:
	}
	close(r.stop)
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	<-r.done
}

// Applied returns the last LSN applied to the target.
func (r *Replica) Applied() uint64 { return r.applied.Load() }

// LinkUp reports whether the session is currently synced and streaming.
func (r *Replica) LinkUp() bool { return r.linkUp.Load() }

// MasterAddr returns the primary's address.
func (r *Replica) MasterAddr() string { return r.cfg.Addr }

// Stats returns a copy of the session's sync counters.
func (r *Replica) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// run is the reconnect loop.
func (r *Replica) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		err := r.syncOnce()
		r.linkUp.Store(false)
		if err == nil {
			return // stopped
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.cfg.ReconnectDelay):
		}
	}
}

// stopped reports whether Stop was called.
func (r *Replica) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// syncOnce runs one connection's lifetime: dial, handshake, sync, stream.
// It returns nil only when the session was stopped; any other exit is an
// error to be retried.
func (r *Replica) syncOnce() error {
	conn, err := net.DialTimeout("tcp", r.cfg.Addr, 3*time.Second)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.stopped() {
		r.mu.Unlock()
		conn.Close()
		return nil
	}
	r.conn = conn
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
		conn.Close()
	}()

	rr := resp.NewReader(conn)
	rw := resp.NewWriter(conn)

	if r.cfg.ListenAddr != "" {
		if _, _, err := net.SplitHostPort(r.cfg.ListenAddr); err == nil {
			_, port, _ := net.SplitHostPort(r.cfg.ListenAddr)
			if err := rw.WriteCommand([]byte("REPLCONF"), []byte("listening-port"), []byte(port)); err != nil {
				return err
			}
			if err := rw.Flush(); err != nil {
				return err
			}
			if _, err := rr.ReadReply(); err != nil {
				return err
			}
		}
	}

	offer := r.applied.Load()
	if err := rw.WriteCommand([]byte("PSYNC"), []byte(strconv.FormatUint(offer, 10))); err != nil {
		return err
	}
	if err := rw.Flush(); err != nil {
		return err
	}
	reply, err := rr.ReadReply()
	if err != nil {
		return err
	}
	line, ok := reply.(string)
	if !ok {
		if e, isErr := reply.(error); isErr {
			return fmt.Errorf("repl: primary refused sync: %w", e)
		}
		return fmt.Errorf("repl: unexpected PSYNC reply %T", reply)
	}

	switch {
	case strings.HasPrefix(line, "FULLSYNC "):
		var lsn, size uint64
		if _, err := fmt.Sscanf(line, "FULLSYNC %d %d", &lsn, &size); err != nil {
			return fmt.Errorf("repl: bad FULLSYNC reply %q", line)
		}
		// The snapshot image follows as exactly size raw bytes — decoded
		// from the same buffered reader the RESP handshake used.
		snapLSN, sets, err := persist.DecodeSnapshotStream(io.LimitReader(rr.Inner(), int64(size)))
		if err != nil {
			return err
		}
		if snapLSN != lsn {
			return fmt.Errorf("repl: snapshot stream LSN %d does not match FULLSYNC %d", snapLSN, lsn)
		}
		// Replace, never merge: the image is the primary's whole keyspace.
		r.cfg.Target.FlushAll()
		if err := r.cfg.Target.LoadSnapshot(sets); err != nil {
			return err
		}
		keys := uint64(0)
		for _, s := range sets {
			keys += uint64(len(s.Keys))
		}
		r.mu.Lock()
		r.stats.FullSyncs++
		r.stats.SnapshotKeys += keys
		r.mu.Unlock()
		r.applied.Store(lsn)
	case strings.HasPrefix(line, "CONTINUE "):
		var lsn uint64
		if _, err := fmt.Sscanf(line, "CONTINUE %d", &lsn); err != nil {
			return fmt.Errorf("repl: bad CONTINUE reply %q", line)
		}
		if lsn != offer {
			return fmt.Errorf("repl: CONTINUE at %d, offered %d", lsn, offer)
		}
		r.mu.Lock()
		r.stats.PartialSyncs++
		r.mu.Unlock()
	default:
		return fmt.Errorf("repl: unexpected PSYNC reply %q", line)
	}

	r.linkUp.Store(true)

	// Acks ride the replica→primary direction of the same connection. The
	// ack goroutine is its sole writer after the handshake; the applier
	// signals it after every batch so WAIT resolves promptly, and a ticker
	// keeps lag observable when the stream idles.
	ackSig := make(chan struct{}, 1)
	ackDone := make(chan struct{})
	go r.ackLoop(conn, ackSig, ackDone)
	defer func() { <-ackDone }()
	defer conn.Close() // unblocks the ack goroutine's ticker loop exit path

	err = r.applyStream(rr, ackSig)
	close(ackSig)
	if r.stopped() {
		return nil
	}
	return err
}

// ackLoop sends REPLCONF ACK <applied> whenever the applier signals and at
// least once a second. It exits when sig closes or a write fails.
func (r *Replica) ackLoop(conn net.Conn, sig chan struct{}, done chan struct{}) {
	defer close(done)
	w := resp.NewWriter(conn)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	send := func() bool {
		// An ACK that fails to serialize or flush must not look sent: the
		// primary's WAIT accounting trusts these offsets.
		if err := w.WriteCommand([]byte("REPLCONF"), []byte("ACK"),
			[]byte(strconv.FormatUint(r.applied.Load(), 10))); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	if !send() {
		return
	}
	for {
		select {
		case _, ok := <-sig:
			if !ok {
				return
			}
			if !send() {
				return
			}
		case <-t.C:
			if !send() {
				return
			}
		}
	}
}

// applyBatchMax bounds how many records one ApplyBatch call carries (and
// therefore how long a serial server's command lock is held per batch).
const applyBatchMax = 256

// applyStream decodes record frames and applies them in batches: the first
// record blocks, then everything already buffered joins the batch, so a
// burst applies under one lock acquisition and acks once.
func (r *Replica) applyStream(rr *resp.Reader, ackSig chan struct{}) error {
	rec := persist.NewRecordReader(rr.Inner())
	batch := make([]persist.Record, 0, applyBatchMax)
	var cur persist.Record
	for {
		if err := rec.Next(&cur); err != nil {
			if err == io.EOF {
				return errors.New("repl: primary closed the stream")
			}
			return err
		}
		batch = batch[:0]
		last := r.applied.Load()
		add := func(rc *persist.Record) {
			if rc.LSN <= last && rc.Op != persist.OpPing {
				return // already applied (defensive; the primary filters by LSN)
			}
			if rc.Op == persist.OpPing {
				// Heartbeat: everything ≤ its LSN was shipped on this stream
				// before it, so it only advances the applied cursor.
				if rc.LSN > last {
					last = rc.LSN
				}
				return
			}
			batch = append(batch, persist.Record{
				Op:  rc.Op,
				LSN: rc.LSN,
				Set: rc.Set,
				Key: append([]byte(nil), rc.Key...),
				Val: rc.Val,
			})
			last = rc.LSN
		}
		add(&cur)
		for len(batch) < applyBatchMax && rec.Buffered() {
			if err := rec.Next(&cur); err != nil {
				return err
			}
			add(&cur)
		}
		if len(batch) > 0 {
			if err := r.cfg.Target.ApplyBatch(batch); err != nil {
				return err
			}
			r.mu.Lock()
			r.stats.Records += uint64(len(batch))
			r.mu.Unlock()
		}
		r.applied.Store(last)
		select {
		case ackSig <- struct{}{}:
		default:
		}
	}
}
