// Sharded streaming engine: the multi-core and multi-host form of Engine.
//
//	caller ──sub-batch──▶ link k ─▶ shard k (RouterLocal) ──reply──▶ merge (Merger + event.Builder)
//
// The caller is the dispatcher. Messages hash by router onto N shards; a
// shard owns the router-local half of the grouper (temporal EWMA models and
// rule windows for its routers) and computes each message's join decisions
// (grouping.Joins). The merge goroutine owns everything global: the group
// partition, closure, the cross-router pass, event building, and event IDs.
// Location keys embed the router, so a shard's decisions depend only on its
// own routers' subsequence; the merge stage applies them in the original
// global order, so the output — events, scores, IDs, order — is
// byte-identical to the serial Engine at any shard count (grouping/shard.go
// has the argument; the one caveat is the MaxStreams bound, enforced per
// shard here). A shard sits behind a shardLink (link.go): a goroutine in
// this process (NewSharded) or a session on a shard server (NewCluster).
//
// Coordination is batch punctuation: every shard gets its (possibly empty)
// sub-batch of each batch and answers exactly one reply per batch; the merge
// stage takes one reply per shard and replays the batch's interleaving. All
// queues are bounded, so memory in flight is O(shards × depth × batch). The
// merge stage's low watermark is the punctuation (max message time) of the
// last batch it applied — monotone, and ≤ every shard's progress. Closure
// tests against the Merger's own watermark exactly as in the serial engine.
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
)

const (
	// DefaultShardBatch is the dispatch batch size: large enough to
	// amortize handoffs, small enough that a live feed's events surface
	// promptly (a batch also flushes on Drain and on any state query).
	DefaultShardBatch = 256
	// shardQueueDepth bounds every queue in batches; total in-flight
	// memory is shards × depth × batch messages.
	shardQueueDepth = 4
	// MaxShardWorkers caps the shard count (the order vector stores shard
	// indexes in a byte).
	MaxShardWorkers = 256
)

// ShardMetrics are one shard's observability handles (nil-safe).
type ShardMetrics struct {
	Pushed    *obs.Counter // stream.shard.<k>.pushed
	Streams   *obs.Gauge   // stream.shard.<k>.streams
	Evictions *obs.Counter // stream.shard.<k>.evictions
	Watermark *obs.Gauge   // stream.shard.<k>.watermark_unix_seconds
}

// ShardedMetrics extend Metrics with the sharded topology's handles. The
// embedded Metrics keep their serial meanings; the router-local series
// (per-shard handles, stream.state streams/evictions, rule-scan counters)
// are fed from each shard's per-batch reply stats.
type ShardedMetrics struct {
	Metrics
	MergeEmitted *obs.Counter          // stream.merge.emitted
	MergeLag     *obs.Histogram        // stream.merge.lag_seconds
	Shards       []ShardMetrics        // index = shard; missing entries record nothing
	Client       cluster.ClientMetrics // shared by every remote shard: engine totals
	// PunctApplied counts batches fully applied by the merge stage
	// (stream.cluster.punctuations_applied). At quiescence
	// batches_sent == punctuations_applied × shards.
	PunctApplied *obs.Counter
}

func (m *ShardedMetrics) shard(k int) ShardMetrics {
	if k < len(m.Shards) {
		return m.Shards[k]
	}
	return ShardMetrics{}
}

// MergeLagBounds are histogram bounds for stream.merge.lag_seconds: how
// far (in log time) the merge stage trails the newest dispatched message.
// Steady state is under one batch of log time; hours mean the merge stage
// is the bottleneck.
func MergeLagBounds() []float64 {
	return []float64{0.001, 0.01, 0.1, 1, 10, 60, 300, 1800, 3600, 14400}
}

type ctrlKind int

const (
	ctrlNone  ctrlKind = iota
	ctrlSync           // ack after the batch is fully applied
	ctrlDrain          // then force-close every open group, then ack
)

// batch is one dispatch: every shard's sub-batch of pooled records
// (consumed by Merger.Apply) plus the interleaving the merge stage replays.
// Batches circulate dispatcher → merge → free list, reusing their backings.
type batch struct {
	seq   uint64
	subs  [][]*grouping.Pending // subs[k]: shard k's messages, in global order
	order []uint8               // order[i]: the shard holding message i
	punct time.Time             // whole-batch punctuation watermark
	kind  ctrlKind
}

// ShardedEngine is the parallel counterpart of Engine, with the same
// contract and event sequence; only delivery timing differs (events surface
// once their batch is applied). Not safe for concurrent use (one
// dispatcher); SetMetrics/SetShardedMetrics must precede the first Observe,
// and Close releases the goroutines and links an unclosed engine leaks.
type ShardedEngine struct {
	shardable *grouping.Shardable
	workers   int
	perShard  int // per-shard MaxStreams: the bound split evenly
	batchSize int
	met       ShardedMetrics
	logf      func(format string, args ...any)
	// newLink opens shard k's link at start; rl is the shard's restored
	// router-local state, nil when fresh.
	newLink func(k int, rl *grouping.RouterLocal) shardLink

	// Dispatcher state (caller goroutine).
	running  bool
	closed   bool
	started  bool
	lastTime time.Time
	cur      *batch // being partitioned
	seq      uint64 // last dispatched batch; the first is 1
	links    []shardLink
	// locals hold restored router-local state until start hands it to the
	// links (and serve State before that).
	locals  []*grouping.RouterLocal
	mergeIn chan *batch
	free    chan *batch
	ack     chan struct{}
	done    chan struct{} // closed when the merge goroutine exits

	maxDispatched atomic.Int64 // unixnano of newest dispatched message
	lowWMns       atomic.Int64 // unixnano punctuation of last applied batch

	// Merge-goroutine state. The caller may touch these only in the quiet
	// window after a sync/drain ack and before the next dispatch.
	merger *grouping.Merger
	// bySeq resolves remote links' Seq deltas: every applied message until
	// its group closes (bounded by open messages). nil for local links.
	bySeq      map[int]*grouping.Pending
	localStats []grouping.LocalStats // each shard's latest (cumulative) reply stats
	resolved   []*grouping.Pending   // delta-resolution scratch

	mu sync.Mutex // guards out, err and the emitter's update queue
	emitter
	out []event.Event // emitted, awaiting collection; backing reused (see collect)
	err error
}

// NewSharded builds a sharded engine over the same knowledge as New, with
// in-process shards. workers must be in [1, MaxShardWorkers]; goroutines
// start lazily on the first Observe.
func NewSharded(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, workers int) (*ShardedEngine, error) {
	e, err := newSharded(dict, rb, cfg, workers)
	if err != nil {
		return nil, err
	}
	e.newLink = func(_ int, rl *grouping.RouterLocal) shardLink {
		if rl == nil {
			rl = e.shardable.NewLocal(e.perShard)
		}
		return newLocalLink(rl)
	}
	return e, nil
}

// NewCluster builds a sharded engine with one remote shard per address
// (repeat an address to host several shards in one process), reached over
// the shard wire protocol. The router hash is NewSharded's, so N remote
// shards see exactly the sub-batches N in-process shards would. The
// connections open lazily on the first Observe.
func NewCluster(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, addrs []string) (*ShardedEngine, error) {
	e, err := newSharded(dict, rb, cfg, len(addrs))
	if err != nil {
		return nil, err
	}
	addrs = append([]string(nil), addrs...)
	ccfg, sig := cluster.ConfigFrom(cfg.Grouping.Config), cluster.Fingerprint(dict, rb)
	e.bySeq = make(map[int]*grouping.Pending)
	e.newLink = func(k int, rl *grouping.RouterLocal) shardLink {
		var seed *grouping.LocalPartState
		if rl != nil {
			part := grouping.CaptureLocal(rl)
			seed = &part
		}
		return &remoteLink{k: k, c: cluster.NewClient(cluster.ClientConfig{
			Addr:       addrs[k],
			Shard:      k,
			Workers:    e.workers,
			MaxStreams: e.perShard,
			KBSig:      sig,
			Config:     ccfg,
			Metrics:    e.met.Client,
			Logf:       e.logf,
		}, seed)}
	}
	return e, nil
}

func newSharded(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, workers int) (*ShardedEngine, error) {
	if workers < 1 || workers > MaxShardWorkers {
		return nil, fmt.Errorf("stream: shard count %d out of range [1, %d]", workers, MaxShardWorkers)
	}
	s, err := grouping.NewShardable(dict, rb, cfg.Grouping)
	if err != nil {
		return nil, err
	}
	e := &ShardedEngine{
		shardable:  s,
		workers:    workers,
		perShard:   (s.MaxStreams() + workers - 1) / workers,
		batchSize:  DefaultShardBatch,
		cur:        &batch{subs: make([][]*grouping.Pending, workers)},
		merger:     s.NewMerger(),
		localStats: make([]grouping.LocalStats, workers),
	}
	e.emitter = newEmitter(cfg, &e.met.Metrics)
	return e, nil
}

// SetBatchSize overrides the dispatch batch size (<= 0: DefaultShardBatch);
// batch boundaries never affect output, only handoff amortization and
// delivery timing. Must precede the first Observe.
func (e *ShardedEngine) SetBatchSize(n int) {
	if e.running {
		return
	}
	if n <= 0 {
		n = DefaultShardBatch
	}
	e.batchSize = n
}

// SetLogf installs a logger for remote shard connection lifecycle lines
// (reconnects, replays). Must precede the first Observe; nil discards them.
func (e *ShardedEngine) SetLogf(f func(format string, args ...any)) {
	if !e.running {
		e.logf = f
	}
}

// SetMetrics installs the serial metric set (per-shard, merge-stage and
// wire handles absent). Must precede the first Observe.
func (e *ShardedEngine) SetMetrics(m Metrics) {
	e.SetShardedMetrics(ShardedMetrics{Metrics: m})
}

// SetShardedMetrics installs the full sharded metric set. Must precede the
// first Observe (which leaves a partitioned message or a running engine
// behind — what the guard checks): the pool counters start here.
func (e *ShardedEngine) SetShardedMetrics(m ShardedMetrics) {
	if e.running || len(e.cur.order) > 0 {
		return
	}
	e.met = m
	e.shardable.Pool().SetMetrics(grouping.PoolMetrics{
		Gets: m.Grouping.PoolGets,
		Puts: m.Grouping.PoolPuts,
		Live: m.Grouping.PoolLive,
	})
}

// start opens the shard links and launches the merge goroutine.
func (e *ShardedEngine) start() {
	e.running = true
	e.links = make([]shardLink, e.workers)
	for k := range e.links {
		var rl *grouping.RouterLocal
		if e.locals != nil {
			rl = e.locals[k]
		}
		e.links[k] = e.newLink(k, rl)
	}
	e.locals = nil // the links own the state now
	e.mergeIn = make(chan *batch, shardQueueDepth)
	e.free = make(chan *batch, shardQueueDepth+2) // queued + merging + partitioning
	e.ack = make(chan struct{}, 1)
	e.done = make(chan struct{})
	e.merger.SetMetrics(grouping.MergeMetrics{
		MergeTemporal:   e.met.Grouping.MergeTemporal,
		MergeRule:       e.met.Grouping.MergeRule,
		MergeCross:      e.met.Grouping.MergeCross,
		CrossCandidates: e.met.Grouping.CrossCandidates,
		OpenMessages:    e.met.Grouping.OpenMessages,
		OpenGroups:      e.met.Grouping.OpenGroups,
	})
	go e.mergeLoop()
}

// shardOf hashes a router name onto a shard (FNV-1a).
func shardOf(router string, workers int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(router); i++ {
		h ^= uint64(router[i])
		h *= 1099511628211
	}
	return int(h % uint64(workers))
}

// Observe ingests one message (nondecreasing Time required) and returns
// the events emitted since the last call (nil when none). Events for a
// message surface once its batch flushes — at the latest BatchSize
// messages later, or at the next Drain or state query.
func (e *ShardedEngine) Observe(m Message) ([]event.Event, error) {
	if err := e.peekErr(); err != nil {
		return nil, err
	}
	if e.closed {
		return nil, fmt.Errorf("stream: sharded engine closed")
	}
	if e.started && m.Time.Before(e.lastTime) { // the serial grouper's contract and message
		return nil, fmt.Errorf("grouping: incremental requires nondecreasing timestamps (got %v after watermark %v)",
			m.Time, e.lastTime)
	}
	e.started = true
	e.lastTime = m.Time
	// Partition on arrival: the pooled record (the serial engine's one
	// struct copy) carries its pipeline reference to Merger.Apply.
	p := e.shardable.Pool().Get(grouping.Message{
		Seq: m.Seq, Time: m.Time, Router: m.Router, Template: m.Template,
		Loc: m.Loc, AllLocs: m.AllLocs, Peers: m.Peers, Raw: m.Raw,
	})
	b, k := e.cur, shardOf(m.Router, e.workers)
	if b.subs[k] == nil { // sized once: batches recycle their sub-batches
		b.subs[k] = make([]*grouping.Pending, 0, e.batchSize)
	}
	b.subs[k] = append(b.subs[k], p)
	b.order = append(b.order, uint8(k))
	if len(b.order) >= e.batchSize {
		e.dispatch(ctrlNone)
	}
	return e.collect(), nil
}

// dispatch hands every shard its sub-batch (empty included — one reply per
// shard per batch is the synchronization invariant) and the merge stage the
// batch. Only called once started, so the punctuation is a message time.
func (e *ShardedEngine) dispatch(kind ctrlKind) {
	if !e.running {
		e.start()
	}
	b := e.cur
	e.seq++
	b.seq, b.punct, b.kind = e.seq, e.lastTime, kind
	e.maxDispatched.Store(b.punct.UnixNano())
	for k, l := range e.links {
		l.send(b.seq, b.subs[k], b.punct, kind == ctrlDrain)
	}
	e.mergeIn <- b
	select {
	case e.cur = <-e.free:
	default:
		e.cur = &batch{subs: make([][]*grouping.Pending, e.workers)}
	}
}

// mergeLoop is the merge stage: per batch it reads one reply from every
// shard, replays the original interleaving, applies each message's join
// decisions to the global Merger, and emits closed groups as events. After
// a failure it keeps consuming (so the dispatcher never blocks) but stops
// applying; the error surfaces on the caller's next Observe.
func (e *ShardedEngine) mergeLoop() {
	defer close(e.done)
	var js grouping.Joins
	replies := make([]shardReply, e.workers)
	idx := make([]int, e.workers)
	for b := range e.mergeIn {
		failed := e.peekErr() != nil
		for k, l := range e.links {
			r, err := l.recv()
			switch {
			case err != nil:
			case r.seq != b.seq:
				err = fmt.Errorf("stream: shard %d answered batch %d, expected %d", k, r.seq, b.seq)
			case r.err != nil:
				err = r.err
			case r.len() != len(b.subs[k]):
				err = fmt.Errorf("stream: shard %d answered %d of %d messages", k, r.len(), len(b.subs[k]))
			}
			if err != nil && !failed {
				e.fail(err)
				failed = true
			}
			replies[k], idx[k] = r, 0
		}
		applied := false
		for _, k := range b.order {
			if failed {
				break
			}
			p, r, i := b.subs[k][idx[k]], &replies[k], idx[k]
			idx[k]++
			closed, err := e.apply(p, r, i, &js)
			if err != nil {
				e.fail(err)
				failed = true
				break
			}
			e.emitUpdates()
			e.emit(closed)
			applied = true
		}
		if applied {
			e.met.Watermark.Set(float64(e.merger.Watermark().UnixNano()) / 1e9)
		}
		e.account(replies, b.punct)
		clear(replies)
		if !failed {
			if len(b.order) > 0 {
				e.met.MergeLag.Observe(time.Duration(e.maxDispatched.Load() - b.punct.UnixNano()).Seconds())
			}
			e.met.PunctApplied.Inc()
		}
		e.lowWMns.Store(b.punct.UnixNano())
		kind := b.kind
		if kind == ctrlDrain && !failed {
			closed := e.merger.Drain()
			e.emitUpdates()
			e.emit(closed)
		}
		e.shardable.Pool().PublishLive()
		for k := range b.subs {
			clear(b.subs[k])
			b.subs[k] = b.subs[k][:0]
		}
		b.order = b.order[:0]
		select {
		case e.free <- b:
		default:
		}
		if kind != ctrlNone {
			e.ack <- struct{}{}
		}
	}
}

// apply rebuilds message i's join decisions from its shard's reply and
// applies them. Local replies carry the predecessors themselves; remote
// ones carry Seq deltas, resolved through bySeq — a miss is a protocol
// desync (the closure-horizon invariant says an open group pins every join
// predecessor), so it fails the engine.
func (e *ShardedEngine) apply(p *grouping.Pending, r *shardReply, i int, js *grouping.Joins) ([]grouping.ClosedGroup, error) {
	if r.dec == nil {
		it := r.items[i]
		js.Temporal = it.temporal
		js.Rules = r.rules[it.rs:it.re:it.re]
		return e.merger.Apply(p, js)
	}
	seq, it := p.Msg().Seq, r.dec.Items[i]
	deltas := r.dec.Rules[it.RS:it.RE]
	e.resolved = e.resolved[:0]
	for j := -1; j < len(deltas); j++ { // j = -1: the temporal predecessor (delta 0: none)
		d := it.Temporal
		if j >= 0 {
			d = deltas[j]
		}
		var pred *grouping.Pending
		if d != 0 {
			if pred = e.bySeq[seq-int(d)]; pred == nil {
				return nil, fmt.Errorf("stream: shard decision desync: predecessor %d of %d not open", seq-int(d), seq)
			}
		}
		e.resolved = append(e.resolved, pred)
	}
	js.Temporal, js.Rules = e.resolved[0], e.resolved[1:]
	e.bySeq[seq] = p
	return e.merger.Apply(p, js)
}

// account publishes the router-local series from one batch's replies: the
// stats are cumulative per shard, so counters advance by the difference to
// the previous reply (restore seeds localStats, so restored totals are
// never counted twice). A dead link's missing reply (seq 0) is skipped.
func (e *ShardedEngine) account(replies []shardReply, punct time.Time) {
	g := &e.met.Grouping
	streams := 0
	for k := range replies {
		r, prev := &replies[k], e.localStats[k]
		if r.seq != 0 {
			st, sm := r.stats, e.met.shard(k)
			sm.Pushed.Add(uint64(r.len()))
			sm.Streams.Set(float64(st.Streams))
			sm.Watermark.Set(float64(punct.UnixNano()) / 1e9)
			if st.Evictions > prev.Evictions {
				sm.Evictions.Add(uint64(st.Evictions - prev.Evictions))
				g.StreamEvictions.Add(uint64(st.Evictions - prev.Evictions))
			}
			if st.RuleCandidates > prev.RuleCandidates {
				g.RuleCandidates.Add(st.RuleCandidates - prev.RuleCandidates)
			}
			if st.RulePairs > prev.RulePairs {
				g.RulePairs.Add(st.RulePairs - prev.RulePairs)
			}
			e.localStats[k] = st
		}
		streams += e.localStats[k].Streams
	}
	g.Streams.Set(float64(streams))
}

// emit builds closed groups' events (Engine.emit's books, plus the
// merge-stage counter) and queues them for the caller to collect; the
// member buffers go back to the Merger once the events are built.
func (e *ShardedEngine) emit(closed []grouping.ClosedGroup) {
	if len(closed) == 0 {
		return
	}
	wm := e.merger.Watermark()
	e.mu.Lock()
	for i := range closed {
		if e.bySeq != nil {
			for j := range closed[i].Members { // no later decision names a closed member
				delete(e.bySeq, closed[i].Members[j].Seq)
			}
		}
		e.out = append(e.out, e.final(&closed[i], wm))
		e.met.MergeEmitted.Inc()
	}
	e.mu.Unlock()
	e.merger.Recycle(closed)
}

// emitUpdates converts the Merger's pending provisional-tier updates to
// event form and queues them. Runs before emit for the same Apply, so
// provisional records always precede the final records they anticipate.
func (e *ShardedEngine) emitUpdates() {
	if !e.prov {
		return
	}
	gus := e.merger.TakeUpdates()
	if len(gus) == 0 {
		return
	}
	wm := e.merger.Watermark()
	e.mu.Lock()
	for _, gu := range gus {
		e.update(gu, wm)
	}
	e.mu.Unlock()
}

// TakeUpdates takes the tier-tagged updates queued since the last call, in
// emission order. Like Observe's event delivery, updates surface once their
// batch is applied. Always empty when the provisional tier is off.
func (e *ShardedEngine) TakeUpdates() []event.Update {
	e.mu.Lock()
	defer e.mu.Unlock()
	return takeQueued(&e.upd)
}

// collect takes the events emitted since the last collection.
func (e *ShardedEngine) collect() []event.Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return takeQueued(&e.out)
}

// takeQueued hands the caller a fresh exact-size copy of a queue (it may
// retain it indefinitely) and clear-truncates the queue's backing for
// reuse, so closure bursts grow it to their high-water mark exactly once.
func takeQueued[T any](q *[]T) []T {
	if len(*q) == 0 {
		return nil
	}
	out := append([]T(nil), *q...)
	clear(*q)
	*q = (*q)[:0]
	return out
}

func (e *ShardedEngine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *ShardedEngine) peekErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// sync flushes the partial batch as a control batch and blocks until the
// merge stage has applied everything dispatched. Until the next dispatch
// the caller has exclusive (happens-before via the ack) access to the
// Merger, the shard stats, and — through the links — the shards' state.
// A no-op until the engine holds state (observed, or restored started).
func (e *ShardedEngine) sync(kind ctrlKind) {
	if !e.started {
		return
	}
	e.dispatch(kind)
	<-e.ack
}

// Drain flushes the partial batch, drops every shard's join windows,
// force-closes every open group (restored ones included, even before any
// Observe), and returns all uncollected events, oldest first. Temporal
// models and watermarks persist, as in the serial engine.
func (e *ShardedEngine) Drain() []event.Event {
	e.sync(ctrlDrain)
	return e.collect()
}

// Close flushes nothing, drops nothing, and stops the merge goroutine and
// the shard links; call Drain first if open groups should still emit. The
// engine rejects further use.
func (e *ShardedEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if !e.running {
		return
	}
	close(e.mergeIn)
	<-e.done
	for _, l := range e.links {
		l.close()
	}
}

// Watermark is the maximum message time observed (dispatcher view — the
// serial engine's watermark after the same Observe calls).
func (e *ShardedEngine) Watermark() time.Time { return e.lastTime }

// LowWatermark is the merge stage's progress: the punctuation of the last
// fully applied batch, ≤ every shard's progress and monotone. Safe to call
// concurrently with anything.
func (e *ShardedEngine) LowWatermark() time.Time {
	ns := e.lowWMns.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// ActiveRules synchronizes and returns the merge stage's cumulative
// per-pair rule-merge tally. The map is a snapshot copy; the caller may
// keep or mutate it freely.
func (e *ShardedEngine) ActiveRules() map[rules.PairKey]int {
	e.sync(ctrlSync)
	return e.merger.ActiveRules()
}

// Stats synchronizes (flushing the partial batch) and snapshots the
// grouper state and merge counters across all shards.
func (e *ShardedEngine) Stats() grouping.IncStats {
	e.sync(ctrlSync)
	ms := e.merger.Stats()
	st := grouping.IncStats{
		OpenMessages:    ms.OpenMessages,
		OpenGroups:      ms.OpenGroups,
		TemporalMerges:  ms.TemporalMerges,
		RuleMerges:      ms.RuleMerges,
		CrossMerges:     ms.CrossMerges,
		CrossCandidates: ms.CrossCandidates,
	}
	for _, ls := range e.localStats {
		st.Streams += ls.Streams
		st.StreamEvictions += ls.Evictions
		st.RuleCandidates += ls.RuleCandidates
		st.RulePairs += ls.RulePairs
	}
	return st
}

// Pending is the number of messages in not-yet-closed groups (synchronizes
// first, so nothing is in flight when it counts).
func (e *ShardedEngine) Pending() int {
	e.sync(ctrlSync)
	return e.merger.Stats().OpenMessages
}
