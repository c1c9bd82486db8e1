package core

import (
	"fmt"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
)

// Default StreamerOptions values.
const (
	// DefaultReorderTolerance is how far behind the newest arrival a
	// message may lag and still be sorted into place. Collector feeds are
	// only approximately time-ordered across routers; a couple of seconds
	// absorbs the usual transport skew.
	DefaultReorderTolerance = 2 * time.Second
	// DefaultReorderCap bounds the reorder buffer; overflow releases the
	// oldest buffered message early rather than growing without bound.
	DefaultReorderCap = 8192
)

// StreamerOptions tune the streaming front-end.
type StreamerOptions struct {
	// ReorderTolerance is the reorder-buffer hold time: a message is
	// released to the engine once the newest arrival is at least this much
	// ahead of it, so any two messages whose timestamps disagree with their
	// arrival order by less than the tolerance are re-sorted. Messages
	// arriving later than an already-released timestamp are dropped (and
	// counted), never an error. 0 means DefaultReorderTolerance; negative
	// means no buffering (strict arrival order, any regression drops).
	ReorderTolerance time.Duration
	// ReorderCap caps buffered messages (<= 0: DefaultReorderCap).
	ReorderCap int
	// MaxStreams caps the engine's temporal-model table
	// (<= 0: grouping.DefaultMaxStreams).
	MaxStreams int
	// StreamWorkers selects the engine: 0 inherits the digester's setting
	// (Params.StreamWorkers / SetStreamWorkers), 1 forces the serial
	// engine, N > 1 the sharded engine with N router-hashed workers.
	// Output is byte-identical at any setting.
	StreamWorkers int
	// ShardAddrs selects the sharded engine over remote shards: one shard
	// process per address (repeat an address to host several shards in one
	// process), reached over the shard wire protocol, merged locally. Empty
	// inherits the digester's setting (SetShardAddrs); when resolved
	// non-empty it takes precedence over StreamWorkers. Output stays
	// byte-identical to the serial engine at any address count.
	ShardAddrs []string
	// ProvisionalHorizon turns on two-tier emission: 0 inherits the
	// digester's setting (Params.ProvisionalHorizon /
	// SetProvisionalHorizon), positive enables provisional records at that
	// log-time horizon, negative forces the tier off. Results then carry
	// tier-tagged Updates alongside the unchanged final Events — the final
	// stream is byte-identical at any setting.
	ProvisionalHorizon time.Duration
}

// Streamer is the continuous front-end of the online pipeline: a bounded
// reorder buffer feeding the incremental engine one augmented message at a
// time. Events return from Push as soon as the engine's watermark proves
// them complete — there is no batch boundary, no quiet-gap wait, and memory
// holds only open-window state, not the feed.
//
// Until PR 4 this type buffered up to 500k messages and re-ran the batch
// digester at quiet gaps; it now wraps stream.Engine, and Push/Flush keep
// their signatures (results carry Events only — Messages is nil, since
// messages no longer pass through in batches).
//
// Not safe for concurrent use; callers serialize (the cmds push under one
// mutex). In sharded mode (StreamWorkers > 1) the engine owns worker
// goroutines: Close the streamer when the feed ends.
type Streamer struct {
	d    *Digester
	opts StreamerOptions

	eng        streamEngine
	engMetrics stream.ShardedMetrics
	reg        *obs.Registry

	buf      reorderHeap
	arrivals uint64 // heap tiebreak: preserves arrival order at equal times
	seq      int    // dense engine sequence, assigned at release
	pushed   uint64 // total Push calls, drops included (replay resume offset)

	started  bool      // any arrival seen; maxSeen is meaningful
	maxSeen  time.Time // newest arrival time
	released bool      // any message released; frontier is meaningful
	frontier time.Time // newest released time == engine watermark

	// carry holds events recovered from a checkpoint that the snapshotted
	// run had emitted into the engine's collection queue but the caller had
	// not yet received; they surface on the next Push or Flush, preserving
	// exactly-once delivery across a restart. carryUpd is the same for
	// tier-tagged updates, keeping (EventID, Revision) delivery
	// exactly-once too.
	carry    []event.Event
	carryUpd []event.Update

	mBuffered   *obs.Gauge   // stream.buffered (reorder buffer depth)
	mPushed     *obs.Counter // stream.pushed
	mReordered  *obs.Counter // stream.reordered
	mDropped    *obs.Counter // stream.dropped.late
	mDroppedOvf *obs.Counter // stream.dropped.overflow
}

// NewStreamer wraps a digester with default options; maxBuffer (<= 0 for
// the default) caps the reorder buffer, preserving the old signature.
func NewStreamer(d *Digester, maxBuffer int) *Streamer {
	return NewStreamerWith(d, StreamerOptions{ReorderCap: maxBuffer})
}

// NewStreamerWith wraps a digester with explicit options.
func NewStreamerWith(d *Digester, opts StreamerOptions) *Streamer {
	if opts.ReorderTolerance == 0 {
		opts.ReorderTolerance = DefaultReorderTolerance
	}
	if opts.ReorderTolerance < 0 {
		opts.ReorderTolerance = 0
	}
	if opts.ReorderCap <= 0 {
		opts.ReorderCap = DefaultReorderCap
	}
	return &Streamer{d: d, opts: opts}
}

// Instrument publishes the streamer's metrics into reg: the reorder-buffer
// counters (stream.pushed, stream.reordered, stream.dropped.late,
// stream.buffered), the engine's emission metrics (stream.emitted,
// stream.emit_latency_seconds, stream.watermark_unix_seconds), its state
// gauges (stream.state.{messages,groups,streams}, stream.state.evictions),
// and the shared grouping merge counters (group.merges.*). In sharded mode
// it additionally publishes per-shard series (stream.shard.<k>.{pushed,
// streams,evictions,watermark_unix_seconds}) and the merge-stage series
// (stream.merge.emitted, stream.merge.lag_seconds). With remote shards
// (ShardAddrs) the wire-level series join them (stream.cluster.{bytes_out,
// bytes_in,batches_sent,batches_acked,replayed_batches,reconnects,
// state_snapshots,rtt_seconds,inflight,punctuations_applied}); all of them
// feed one stream.ShardedMetrics. A nil registry leaves the streamer
// uninstrumented.
func (s *Streamer) Instrument(reg *obs.Registry) {
	s.reg = reg
	s.mBuffered = reg.Gauge("stream.buffered")
	s.mPushed = reg.Counter("stream.pushed")
	s.mReordered = reg.Counter("stream.reordered")
	s.mDropped = reg.Counter("stream.dropped.late")
	s.mDroppedOvf = reg.Counter("stream.dropped.overflow")
	s.engMetrics = stream.ShardedMetrics{Metrics: stream.Metrics{
		Grouping: grouping.IncMetrics{
			MergeTemporal:   reg.Counter("group.merges.temporal"),
			MergeRule:       reg.Counter("group.merges.rule"),
			MergeCross:      reg.Counter("group.merges.cross"),
			RuleCandidates:  reg.Counter("group.rule.candidates_scanned"),
			RulePairs:       reg.Counter("group.rule.pairs_matched"),
			CrossCandidates: reg.Counter("group.cross.candidates_scanned"),
			OpenMessages:    reg.Gauge("stream.state.messages"),
			OpenGroups:      reg.Gauge("stream.state.groups"),
			Streams:         reg.Gauge("stream.state.streams"),
			StreamEvictions: reg.Counter("stream.state.evictions"),
			PoolGets:        reg.Counter("stream.pool.pending.gets"),
			PoolPuts:        reg.Counter("stream.pool.pending.puts"),
			PoolLive:        reg.Gauge("stream.pool.pending.live"),
		},
		Emitted:     reg.Counter("stream.emitted"),
		EmitLatency: reg.Histogram("stream.emit_latency_seconds", stream.EmitLatencyBounds()),
		Watermark:   reg.Gauge("stream.watermark_unix_seconds"),
	}}
	if s.provHorizon() > 0 {
		s.engMetrics.ProvEmitted = reg.Counter("stream.provisional.emitted")
		s.engMetrics.ProvRevised = reg.Counter("stream.provisional.revised")
		s.engMetrics.ProvSuperseded = reg.Counter("stream.provisional.superseded")
		s.engMetrics.ProvFinalized = reg.Counter("stream.provisional.finalized")
		s.engMetrics.RevisionChurn = reg.Histogram("stream.provisional.revision_churn", stream.ChurnBounds())
		s.engMetrics.ProvLatency = reg.Histogram("stream.provisional.latency_seconds", stream.EmitLatencyBounds())
	}
	if w := s.workers(); w > 1 {
		s.engMetrics.MergeEmitted = reg.Counter("stream.merge.emitted")
		s.engMetrics.MergeLag = reg.Histogram("stream.merge.lag_seconds", stream.MergeLagBounds())
		s.engMetrics.Shards = make([]stream.ShardMetrics, w)
		for k := 0; k < w; k++ {
			s.engMetrics.Shards[k] = stream.ShardMetrics{
				Pushed:    reg.Counter(fmt.Sprintf("stream.shard.%d.pushed", k)),
				Streams:   reg.Gauge(fmt.Sprintf("stream.shard.%d.streams", k)),
				Evictions: reg.Counter(fmt.Sprintf("stream.shard.%d.evictions", k)),
				Watermark: reg.Gauge(fmt.Sprintf("stream.shard.%d.watermark_unix_seconds", k)),
			}
		}
	}
	if len(s.clusterAddrs()) > 0 {
		s.engMetrics.Client = cluster.ClientMetrics{
			BytesOut:       reg.Counter("stream.cluster.bytes_out"),
			BytesIn:        reg.Counter("stream.cluster.bytes_in"),
			BatchesSent:    reg.Counter("stream.cluster.batches_sent"),
			BatchesAcked:   reg.Counter("stream.cluster.batches_acked"),
			Replayed:       reg.Counter("stream.cluster.replayed_batches"),
			Reconnects:     reg.Counter("stream.cluster.reconnects"),
			StateSnapshots: reg.Counter("stream.cluster.state_snapshots"),
			RTT:            reg.Histogram("stream.cluster.rtt_seconds", stream.ClusterRTTBounds()),
			Inflight:       reg.Gauge("stream.cluster.inflight"),
		}
		s.engMetrics.PunctApplied = reg.Counter("stream.cluster.punctuations_applied")
	}
	if s.eng != nil {
		s.setEngineMetrics(s.eng)
	}
}

// workers resolves the engine's shard count: the cluster address list when
// one is configured (one shard per address), else the explicit streamer
// option, else the digester's setting.
func (s *Streamer) workers() int {
	if addrs := s.clusterAddrs(); len(addrs) > 0 {
		return len(addrs)
	}
	if s.opts.StreamWorkers != 0 {
		return s.opts.StreamWorkers
	}
	return s.d.streamWorks
}

// clusterAddrs resolves the remote-shard address list: explicit streamer
// option first, then the digester's setting. Empty means in-process.
func (s *Streamer) clusterAddrs() []string {
	if len(s.opts.ShardAddrs) > 0 {
		return s.opts.ShardAddrs
	}
	return s.d.shardAddrs
}

// provHorizon resolves the two-tier emission setting: explicit streamer
// option first (negative forces off), then the digester's setting.
func (s *Streamer) provHorizon() time.Duration {
	if s.opts.ProvisionalHorizon != 0 {
		if s.opts.ProvisionalHorizon < 0 {
			return 0
		}
		return s.opts.ProvisionalHorizon
	}
	return s.d.provHorizon
}

// setEngineMetrics hands the metric set to the engine; the sharded engine
// (in-process or cluster) also takes the per-shard, merge-stage and wire
// handles. Metrics must land before the first Observe (they do: engine()
// installs them immediately after construction).
func (s *Streamer) setEngineMetrics(eng streamEngine) {
	if sh, ok := eng.(*stream.ShardedEngine); ok {
		sh.SetShardedMetrics(s.engMetrics)
		return
	}
	eng.SetMetrics(s.engMetrics.Metrics)
}

// engine lazily builds the underlying engine (construction can fail on
// invalid temporal parameters, and NewStreamer has no error return).
func (s *Streamer) engine() (streamEngine, error) {
	if s.eng == nil {
		eng, err := s.d.newStreamEngine(s.opts.MaxStreams, s.workers(), s.clusterAddrs(), s.provHorizon())
		if err != nil {
			return nil, err
		}
		s.eng = eng
		s.setEngineMetrics(eng)
	}
	return s.eng, nil
}

// Close releases the engine's worker goroutines (a no-op for the serial
// engine). Open groups do not emit — Flush first for a clean shutdown.
func (s *Streamer) Close() {
	if s.eng != nil {
		s.eng.Close()
	}
}

// Push ingests one message and returns the events it closed (nil when none
// closed). Out-of-order arrivals within the reorder tolerance are sorted
// into place; arrivals older than the released frontier are dropped and
// counted, never an error — a live feed must survive a misbehaving clock.
// Drops split into two series: stream.dropped.late for arrivals lagging
// more than the tolerance behind the newest (the sender misbehaved), and
// stream.dropped.overflow for arrivals still within tolerance whose slot
// was lost because the cap (or a Flush) forced the frontier forward early
// (the buffer was undersized — retune ReorderCap, not the sender).
//
// On an engine error the events already closed during the call are
// returned alongside the error, so nothing the engine emitted is lost.
func (s *Streamer) Push(m syslogmsg.Message) (*DigestResult, error) {
	s.mPushed.Inc()
	s.pushed++
	if s.released && m.Time.Before(s.frontier) {
		if s.opts.ReorderTolerance > 0 && m.Time.After(s.maxSeen.Add(-s.opts.ReorderTolerance)) {
			s.mDroppedOvf.Inc()
		} else {
			s.mDropped.Inc()
		}
		return s.finish(s.takeCarry(), nil)
	}
	if s.started && m.Time.Before(s.maxSeen) {
		s.mReordered.Inc()
	} else {
		s.maxSeen = m.Time
	}
	s.started = true

	events := s.takeCarry()
	var ferr error
	if len(s.buf) >= s.opts.ReorderCap {
		// The buffer is at its documented bound: release one message now
		// so it never holds more than ReorderCap. When the new arrival
		// precedes everything buffered it is itself the one to release —
		// feeding it directly keeps the feed order sorted without it ever
		// occupying a slot.
		if m.Time.Before(s.buf[0].m.Time) {
			evs, err := s.feed(m)
			events = append(events, evs...)
			ferr = err
		} else {
			item := s.buf.pop()
			evs, err := s.feed(item.m)
			events = append(events, evs...)
			if err != nil {
				ferr = err
			} else {
				s.buf.push(bufItem{m: m, order: s.arrivals})
				s.arrivals++
			}
		}
	} else {
		s.buf.push(bufItem{m: m, order: s.arrivals})
		s.arrivals++
	}
	if ferr == nil {
		evs, err := s.release()
		events = append(events, evs...)
		ferr = err
	}
	s.mBuffered.Set(float64(len(s.buf)))
	return s.finish(events, ferr)
}

// release feeds the engine every buffered message that is either older than
// maxSeen − tolerance (no in-tolerance arrival can precede it anymore) or
// forced out by the buffer cap (possible after a restore into a smaller
// cap; Push itself never overfills). Events closed before a feed error are
// returned with it.
func (s *Streamer) release() ([]event.Event, error) {
	bound := s.maxSeen.Add(-s.opts.ReorderTolerance)
	var events []event.Event
	for len(s.buf) > 0 {
		if s.buf[0].m.Time.After(bound) && len(s.buf) <= s.opts.ReorderCap {
			break
		}
		item := s.buf.pop()
		evs, err := s.feed(item.m)
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// takeCarry drains the restored-but-undelivered events, if any.
func (s *Streamer) takeCarry() []event.Event {
	if s.carry == nil {
		return nil
	}
	c := s.carry
	s.carry = nil
	return c
}

// finish packages events (possibly partial, alongside an error) plus the
// call's tier-tagged updates — restored carry first, then whatever the
// engine queued during this call — as a DigestResult, keeping the
// nil-when-empty contract.
func (s *Streamer) finish(events []event.Event, err error) (*DigestResult, error) {
	upds := s.carryUpd
	s.carryUpd = nil
	if s.eng != nil {
		if eu := s.eng.TakeUpdates(); len(eu) > 0 {
			if upds == nil {
				upds = eu
			} else {
				upds = append(upds, eu...)
			}
		}
	}
	if len(events) == 0 && len(upds) == 0 {
		return nil, err
	}
	return &DigestResult{Events: events, Updates: upds}, err
}

// feed augments one message and hands it to the engine.
func (s *Streamer) feed(m syslogmsg.Message) ([]event.Event, error) {
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	pm := s.d.kb.Augment(&m)
	sm := streamMsg(&pm, s.seq)
	s.seq++
	evs, err := eng.Observe(sm)
	if err != nil {
		return nil, err
	}
	s.frontier = pm.Time
	s.released = true
	return evs, nil
}

// Flush releases the reorder buffer and force-closes every open group,
// returning the events (nil when nothing was pending). The engine's
// temporal models, watermark, and the drop frontier persist: flushing is
// an emission point, not a reset.
//
// If a feed fails mid-drain, the events already closed are returned with
// the error (nothing emitted is lost), the unfed remainder stays buffered,
// and stream.buffered reflects it.
func (s *Streamer) Flush() (*DigestResult, error) {
	events := s.takeCarry()
	var ferr error
	for len(s.buf) > 0 {
		item := s.buf.pop()
		evs, err := s.feed(item.m)
		events = append(events, evs...)
		if err != nil {
			ferr = err
			break
		}
	}
	s.mBuffered.Set(float64(len(s.buf)))
	if ferr == nil && s.eng != nil {
		events = append(events, s.eng.Drain()...)
	}
	return s.finish(events, ferr)
}

// Pushed is the number of Push calls this streamer has accepted, dropped
// arrivals included. A replayable source that checkpoints the streamer can
// skip exactly this many messages on restart to resume where it left off.
func (s *Streamer) Pushed() uint64 { return s.pushed }

// Pending returns the number of messages held in the streamer: buffered for
// reordering plus open (grouped but unemitted) in the engine.
func (s *Streamer) Pending() int {
	n := len(s.buf)
	if s.eng != nil {
		n += s.eng.Pending()
	}
	return n
}

// Watermark is the engine's watermark (zero before the first release).
func (s *Streamer) Watermark() time.Time {
	if s.eng == nil {
		return time.Time{}
	}
	return s.eng.Watermark()
}

// bufItem is one buffered arrival; order breaks timestamp ties so equal
// times release in arrival order.
type bufItem struct {
	m     syslogmsg.Message
	order uint64
}

// reorderHeap is a min-heap on (time, arrival order). Hand-rolled rather
// than container/heap: push/pop run once per message on the hot path, and
// the concrete element type avoids the interface boxing allocation.
type reorderHeap []bufItem

func (h reorderHeap) less(i, j int) bool {
	if !h[i].m.Time.Equal(h[j].m.Time) {
		return h[i].m.Time.Before(h[j].m.Time)
	}
	return h[i].order < h[j].order
}

func (h *reorderHeap) push(it bufItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *reorderHeap) pop() bufItem {
	q := *h
	n := len(q) - 1
	it := q[0]
	q[0] = q[n]
	q[n] = bufItem{}
	q = q[:n]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return it
}
