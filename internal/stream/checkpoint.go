// Checkpoint capture and restore for the streaming engines (PR 6).
//
// Both engine shapes serialize to one EngineState, so a snapshot taken at
// any worker count restores at any other: the grouping layer reshards (or
// exactly restores) the router-local state, and the dispatcher-level fields
// (next event ID, last accepted time) are shape-independent. Events already
// emitted but not yet collected by the caller are returned alongside the
// state — they are the caller's to persist, because dropping them would
// break exactly-once delivery across a restart.
package stream

import (
	"fmt"

	"syslogdigest/internal/checkpoint"
	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/rules"
)

// EngineState is the serializable state of a streaming engine (serial or
// sharded). Worker count, batch size, and metrics are runtime configuration
// and deliberately absent.
type EngineState struct {
	NextID     int               `json:"next_id"`
	LastTimeNs int64             `json:"last_time_ns"`
	Started    bool              `json:"started"`
	Inc        grouping.IncState `json:"inc"`
}

// State snapshots the serial engine. The extra return values mirror the
// sharded signature: uncollected events (always nil here — the serial
// engine hands events straight back from Observe) and tier-tagged updates
// not yet taken via TakeUpdates, which the caller must persist alongside
// the state to keep revision delivery exactly-once across a restart.
func (e *Engine) State() (EngineState, []event.Event, []event.Update, error) {
	inc := e.inc.State()
	var pending []event.Update
	if len(e.upd) > 0 {
		pending = append(pending, e.upd...)
	}
	return EngineState{
		NextID:     e.nextID,
		LastTimeNs: inc.Merger.WatermarkNs,
		Started:    inc.Merger.Started,
		Inc:        inc,
	}, nil, pending, nil
}

// RestoreEngine rebuilds a serial engine from a snapshot taken at any
// worker count (a multi-shard snapshot merges into the single local).
func RestoreEngine(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, st EngineState) (*Engine, error) {
	inc, err := grouping.RestoreIncremental(dict, rb, cfg.Grouping, st.Inc)
	if err != nil {
		return nil, err
	}
	e := &Engine{inc: inc}
	e.emitter = newEmitter(cfg, &e.met)
	e.nextID = st.NextID
	return e, nil
}

// State synchronizes, fetches every shard's router-local state through its
// link, and stitches the parts with the merger into the EngineState the
// serial engine would snapshot (grouping.CaptureRemoteParts is
// byte-identical to CaptureParts). It also returns copies of the events and
// tier-tagged updates not yet collected — the caller must persist them with
// the state; they stay queued here for the live engine's next collection.
func (e *ShardedEngine) State() (EngineState, []event.Event, []event.Update, error) {
	if e.closed {
		return EngineState{}, nil, nil, fmt.Errorf("stream: sharded engine closed")
	}
	if e.running || len(e.cur.order) > 0 {
		e.sync(ctrlSync)
	}
	if err := e.peekErr(); err != nil {
		return EngineState{}, nil, nil, err
	}
	var parts []grouping.LocalPartState
	for k, l := range e.links {
		part, err := l.state()
		if err != nil {
			return EngineState{}, nil, nil, fmt.Errorf("stream: shard %d state: %w", k, err)
		}
		parts = append(parts, part)
	}
	for _, rl := range e.locals { // restored, not yet started
		parts = append(parts, grouping.CaptureLocal(rl))
	}
	inc, err := grouping.CaptureRemoteParts(e.merger, parts)
	if err != nil {
		return EngineState{}, nil, nil, err
	}
	st := EngineState{
		NextID:     e.nextID,
		LastTimeNs: checkpoint.TimeNs(e.lastTime),
		Started:    e.started,
		Inc:        inc,
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return st, append([]event.Event(nil), e.out...), append([]event.Update(nil), e.upd...), nil
}

// RestoreSharded rebuilds an in-process sharded engine from a snapshot
// taken at any shard count or engine shape. When the counts match, every
// shard's state (model LRU order, per-shard bounds and counters) restores
// exactly; otherwise the router-local state reshards by the same router
// hash the dispatcher uses. Goroutines still start lazily on the first
// Observe.
func RestoreSharded(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, workers int, st EngineState) (*ShardedEngine, error) {
	e, err := NewSharded(dict, rb, cfg, workers)
	if err != nil {
		return nil, err
	}
	return e.restore(st)
}

// RestoreCluster is RestoreSharded over remote shards: each shard's part
// seeds its session in the handshake on first dial.
func RestoreCluster(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config, addrs []string, st EngineState) (*ShardedEngine, error) {
	e, err := NewCluster(dict, rb, cfg, addrs)
	if err != nil {
		return nil, err
	}
	return e.restore(st)
}

func (e *ShardedEngine) restore(st EngineState) (*ShardedEngine, error) {
	locals, mg, err := e.shardable.RestoreParts(st.Inc, e.workers, e.perShard, func(r string) int {
		return shardOf(r, e.workers)
	})
	if err != nil {
		return nil, err
	}
	e.locals, e.merger = locals, mg
	for k, rl := range locals {
		e.localStats[k] = rl.Stats()
	}
	if e.bySeq != nil {
		// Every open message can still be named by a future decision.
		mg.EachOpenPending(func(p *grouping.Pending) { e.bySeq[p.Msg().Seq] = p })
	}
	e.nextID, e.started, e.lastTime = st.NextID, st.Started, checkpoint.NsTime(st.LastTimeNs)
	if e.started {
		e.maxDispatched.Store(e.lastTime.UnixNano())
		e.lowWMns.Store(e.lastTime.UnixNano())
	}
	return e, nil
}
