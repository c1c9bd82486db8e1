package stream

import (
	"fmt"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/grouping"
)

// stateFetchTimeout bounds a checkpoint's per-shard state fetch over the
// wire; generous, as it spans a reconnect cycle (the client re-requests).
const stateFetchTimeout = 60 * time.Second

// ClusterRTTBounds are histogram bounds for batch round-trip time
// (dispatch write to decision read), spanning loopback microseconds to a
// congested-WAN second.
func ClusterRTTBounds() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
}

// shardLink is the engine's only contact with one shard. send runs on the
// dispatcher goroutine; recv on the merge goroutine; state and close in the
// caller's quiet window (after a sync ack, or after the merge goroutine
// exits).
type shardLink interface {
	// send ships one sub-batch (which may be empty) with its punctuation;
	// drain drops the shard's join windows after it. seq counts from 1.
	send(seq uint64, msgs []*grouping.Pending, punct time.Time, drain bool)
	// recv blocks for the next batch's reply — exactly one per send, in
	// order. The reply stays valid until the next recv. An error means the
	// link is dead; every later recv fails at once.
	recv() (shardReply, error)
	// state snapshots the shard's router-local state as of every batch sent.
	state() (grouping.LocalPartState, error)
	close()
}

// shardReply is one shard's answer to one batch: a join decision per
// message stepped (a prefix when err is set) and the shard's cumulative
// stats. Exactly one decision form is set.
type shardReply struct {
	seq   uint64
	stats grouping.LocalStats
	err   error // in-band shard error
	// Local form: items[i] names message i's predecessors; its rule
	// predecessors are the window [rs, re) of the shared rules arena.
	items []shardItem
	rules []*grouping.Pending
	// Remote form: predecessors as Seq deltas, resolved by the merge stage.
	dec *cluster.DecisionBatch
}

type shardItem struct {
	temporal *grouping.Pending
	rs, re   int32
}

func (r *shardReply) len() int {
	if r.dec != nil {
		return len(r.dec.Items)
	}
	return len(r.items)
}

// localLink runs a shard as a goroutine over an in-process RouterLocal;
// reply backings circulate shard → merge → free list.
type localLink struct {
	local *grouping.RouterLocal
	in    chan localBatch
	out   chan shardReply
	free  chan shardReply
	last  shardReply // handed out by the previous recv; recycled by the next
	done  chan struct{}
}

type localBatch struct {
	seq   uint64
	msgs  []*grouping.Pending
	drain bool
}

func newLocalLink(rl *grouping.RouterLocal) *localLink {
	l := &localLink{
		local: rl,
		in:    make(chan localBatch, shardQueueDepth),
		out:   make(chan shardReply, shardQueueDepth),
		free:  make(chan shardReply, shardQueueDepth+2), // queued + stepping + merging
		done:  make(chan struct{}),
	}
	go l.run()
	return l
}

// run steps each sub-batch (read-only: the merge stage recycles it).
func (l *localLink) run() {
	defer close(l.done)
	var js grouping.Joins
	for b := range l.in {
		var r shardReply
		select {
		case r = <-l.free:
		default:
		}
		r.seq = b.seq
		for _, p := range b.msgs {
			if err := l.local.Step(p, &js); err != nil {
				r.err = err
				break
			}
			it := shardItem{temporal: js.Temporal, rs: int32(len(r.rules))}
			r.rules = append(r.rules, js.Rules...)
			it.re = int32(len(r.rules))
			r.items = append(r.items, it)
		}
		if b.drain {
			l.local.DrainWindows()
		}
		r.stats = l.local.Stats()
		l.out <- r
	}
}

func (l *localLink) send(seq uint64, msgs []*grouping.Pending, _ time.Time, drain bool) {
	l.in <- localBatch{seq: seq, msgs: msgs, drain: drain}
}

func (l *localLink) recv() (shardReply, error) {
	if r := l.last; cap(r.items) > 0 {
		clear(r.items)
		clear(r.rules)
		select {
		case l.free <- shardReply{items: r.items[:0], rules: r.rules[:0]}:
		default:
		}
	}
	l.last = <-l.out
	return l.last, nil
}

func (l *localLink) state() (grouping.LocalPartState, error) {
	return grouping.CaptureLocal(l.local), nil
}

func (l *localLink) close() {
	close(l.in)
	<-l.done
}

// remoteLink is a session on a shard server; cluster.Client owns the
// connection, reconnects, and replay.
type remoteLink struct {
	k    int
	c    *cluster.Client
	last *cluster.DecisionBatch
}

func (l *remoteLink) send(seq uint64, msgs []*grouping.Pending, punct time.Time, drain bool) {
	l.c.SendBatch(seq, punct.UnixNano(), drain, msgs)
}

func (l *remoteLink) recv() (shardReply, error) {
	if l.last != nil {
		l.c.Recycle(l.last)
		l.last = nil
	}
	db, ok := <-l.c.Decisions()
	if !ok {
		if err := l.c.Err(); err != nil {
			return shardReply{}, err
		}
		return shardReply{}, fmt.Errorf("stream: cluster shard %d: decision stream closed", l.k)
	}
	l.last = db
	r := shardReply{seq: db.Seq, stats: db.Stats, dec: db}
	if db.ShardErr != "" {
		r.err = fmt.Errorf("stream: cluster shard %d: %s", l.k, db.ShardErr)
	}
	return r, nil
}

func (l *remoteLink) state() (grouping.LocalPartState, error) {
	return l.c.FetchState(stateFetchTimeout)
}

func (l *remoteLink) close() { l.c.Close() }
