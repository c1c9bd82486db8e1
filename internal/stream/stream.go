// Package stream is the incremental online engine of SyslogDigest: it
// consumes augmented messages one at a time and emits each network event as
// soon as no grouping pass can still extend it, instead of re-running the
// batch pipeline at quiet gaps.
//
// The engine wraps grouping.Incremental (which maintains the partition over
// bounded state and decides closure against the watermark) and
// event.Builder (which scores and labels each closed group exactly as the
// batch path would). Event-emission latency — how far the watermark had to
// advance past an event's last message before the event could be proven
// complete — is the closure horizon by construction: max(Smax, W, Cross)
// for enabled passes, ≈3h at the paper's Table 6 defaults. That is the
// price of exactness; operators wanting earlier previews can lower Smax or
// Drain on a timer.
//
// Not safe for concurrent use: one engine per feed, callers serialize.
package stream

import (
	"time"

	"syslogdigest/internal/event"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/locdict"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
)

// Message is one augmented message entering the engine. Seq must be unique
// and assigned in feed order (the engine's events report it back in
// MessageSeqs); Raw is the raw syslog index carried through to RawIndexes.
type Message struct {
	Seq      int
	Time     time.Time
	Router   string
	Template int
	Loc      locdict.Location
	AllLocs  []locdict.Location
	Peers    []string
	Raw      uint64
}

// Config assembles an engine.
type Config struct {
	// Grouping tunes the incremental grouper (windows, stage selection,
	// MaxStreams state bound).
	Grouping grouping.IncrementalConfig
	// Freq supplies historical signature frequencies for scoring (nil: all
	// unseen).
	Freq *event.FreqTable
	// Labeler names events (nil: default heuristics).
	Labeler *event.Labeler
}

// Metrics are the engine's optional observability handles (all nil-safe).
type Metrics struct {
	Grouping    grouping.IncMetrics
	Emitted     *obs.Counter   // stream.emitted
	EmitLatency *obs.Histogram // stream.emit_latency_seconds (log time)
	Watermark   *obs.Gauge     // stream.watermark_unix_seconds

	// Two-tier emission books (PR 9), populated only when the provisional
	// horizon is on. They reconcile exactly: ProvFinalized == Emitted, and
	// ProvEmitted == ProvFinalized + ProvSuperseded (every identity that
	// gets a first signal either closes or is absorbed).
	ProvEmitted    *obs.Counter   // stream.provisional.emitted (revision-0 records)
	ProvRevised    *obs.Counter   // stream.provisional.revised
	ProvSuperseded *obs.Counter   // stream.provisional.superseded
	ProvFinalized  *obs.Counter   // stream.provisional.finalized
	RevisionChurn  *obs.Histogram // stream.provisional.revision_churn (revisions per final event)
	ProvLatency    *obs.Histogram // stream.provisional.latency_seconds (log time, first signal)
}

// EmitLatencyBounds are histogram bounds sized for closure latency, which
// is the closure horizon (up to hours at Smax = 3h), not milliseconds.
// Provisional first-signal latency shares them: it lands in the low
// buckets (≈ the provisional horizon), which is exactly the contrast the
// two histograms exist to show.
func EmitLatencyBounds() []float64 {
	return []float64{1, 5, 15, 60, 300, 900, 1800, 3600, 7200, 10800, 14400, 21600, 43200}
}

// ChurnBounds are histogram bounds for revisions-per-final-event: almost
// always single digits (one provisional plus a handful of revisions).
func ChurnBounds() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
}

// Engine is one incremental digest pipeline instance.
type Engine struct {
	inc *grouping.Incremental
	met Metrics
	emitter
}

// New builds an engine from learned knowledge. dict may not be nil; rb may
// be nil when rule-based grouping is disabled or nothing was mined.
func New(dict *locdict.Dictionary, rb *rules.RuleBase, cfg Config) (*Engine, error) {
	inc, err := grouping.NewIncremental(dict, rb, cfg.Grouping)
	if err != nil {
		return nil, err
	}
	e := &Engine{inc: inc}
	e.emitter = newEmitter(cfg, &e.met)
	return e, nil
}

// SetMetrics installs observability handles.
func (e *Engine) SetMetrics(m Metrics) {
	e.met = m
	e.inc.SetMetrics(m.Grouping)
}

// Observe ingests one message (nondecreasing Time required) and returns the
// events its watermark advance closed, oldest first. Event IDs count up in
// emission order; ranking across events is the caller's concern (a live
// feed has no batch to rank within).
func (e *Engine) Observe(m Message) ([]event.Event, error) {
	closed, err := e.inc.Observe(grouping.Message{
		Seq: m.Seq, Time: m.Time, Router: m.Router, Template: m.Template,
		Loc: m.Loc, AllLocs: m.AllLocs, Peers: m.Peers, Raw: m.Raw,
	})
	if err != nil {
		return nil, err
	}
	e.met.Watermark.Set(float64(e.inc.Watermark().UnixNano()) / 1e9)
	e.collectUpdates()
	return e.emit(closed), nil
}

// Drain force-closes every open group and returns the events, oldest
// first. The temporal models and watermark persist; see
// grouping.Incremental.Drain.
func (e *Engine) Drain() []event.Event {
	closed := e.inc.Drain()
	e.collectUpdates()
	return e.emit(closed)
}

// TakeUpdates returns and clears the tier-tagged updates queued since the
// last call, in emission order (provisional/revised/superseded records
// interleaved with the final records of the events the same steps closed).
// Always empty when the provisional tier is off.
func (e *Engine) TakeUpdates() []event.Update {
	out := e.upd
	e.upd = nil
	return out
}

// collectUpdates converts the grouper's pending provisional-tier updates
// into event form. Must run before emit so the queue keeps provisional
// records ahead of the final records they anticipate.
func (e *Engine) collectUpdates() {
	if !e.prov {
		return
	}
	for _, gu := range e.inc.TakeUpdates() {
		e.update(gu, e.inc.Watermark())
	}
}

// Close is a no-op: the serial engine owns no goroutines. It exists so
// callers can hold the serial and the sharded engine behind one interface
// (ShardedEngine's Close, in-process or cluster, is load-bearing).
func (e *Engine) Close() {}

// Watermark is the maximum message time observed.
func (e *Engine) Watermark() time.Time { return e.inc.Watermark() }

// Horizon is the closure bound (also the worst-case emission latency in
// log time).
func (e *Engine) Horizon() time.Duration { return e.inc.Horizon() }

// ActiveRules is the cumulative per-pair rule-merge tally.
func (e *Engine) ActiveRules() map[rules.PairKey]int { return e.inc.ActiveRules() }

// Stats snapshots the grouper state and merge counters.
func (e *Engine) Stats() grouping.IncStats { return e.inc.Stats() }

// Pending is the number of messages in not-yet-closed groups.
func (e *Engine) Pending() int { return e.inc.Stats().OpenMessages }

// emit scores closed groups and hands the member buffers back to the
// grouper for reuse. The returned event slice is freshly allocated (the
// caller may retain it); it is the one steady-state allocation left on the
// emission path, paid only on the rare calls that actually close groups.
func (e *Engine) emit(closed []grouping.ClosedGroup) []event.Event {
	if len(closed) == 0 {
		return nil
	}
	wm := e.inc.Watermark()
	evs := make([]event.Event, 0, len(closed))
	for i := range closed {
		evs = append(evs, e.final(&closed[i], wm))
	}
	e.inc.Recycle(closed)
	return evs
}

// emitter is the event-building tail both engines share: it turns closed
// groups and provisional-tier updates into events, numbers the finals in
// emission order, queues the tier-tagged records, and keeps the emission
// books. The sharded engine runs it on its merge goroutine, preserving the
// serial emission order.
type emitter struct {
	builder *event.Builder
	prov    bool // provisional tier on (cfg.Grouping.ProvisionalHorizon > 0)
	nextID  int
	met     *Metrics
	upd     []event.Update
	members []event.Member // scratch, reused across calls
}

func newEmitter(cfg Config, met *Metrics) emitter {
	return emitter{builder: event.NewBuilder(cfg.Freq, cfg.Labeler), prov: cfg.Grouping.ProvisionalHorizon > 0, met: met}
}

// final builds a closed group's event under the next ID; with the tier on
// it also queues the group's final update record.
func (m *emitter) final(cg *grouping.ClosedGroup, wm time.Time) event.Event {
	ev := m.build(cg.Members)
	ev.ID = m.nextID
	m.nextID++
	m.met.Emitted.Inc()
	m.met.EmitLatency.Observe(wm.Sub(ev.End).Seconds())
	if m.prov {
		m.met.ProvFinalized.Inc()
		m.met.RevisionChurn.Observe(float64(cg.Revision))
		m.upd = append(m.upd, event.Update{
			EventID: cg.ID, Revision: cg.Revision,
			Status: event.StatusFinal, Event: ev,
		})
	}
	return ev
}

// update queues one grouping-layer update in event form and records the
// provisional books.
func (m *emitter) update(gu grouping.GroupUpdate, wm time.Time) {
	u := event.Update{EventID: gu.ID, Revision: gu.Revision}
	switch gu.Kind {
	case grouping.UpdateSuperseded:
		u.Status = event.StatusSuperseded
		u.SupersededBy = gu.SupersededBy
		m.met.ProvSuperseded.Inc()
		m.upd = append(m.upd, u)
		return
	case grouping.UpdateRevised:
		u.Status = event.StatusRevised
		m.met.ProvRevised.Inc()
	default:
		u.Status = event.StatusProvisional
		m.met.ProvEmitted.Inc()
	}
	u.Event = m.build(gu.Members)
	u.Event.ID = -1 // the sequential final-stream ID is assigned only at closure
	if u.Status == event.StatusProvisional {
		m.met.ProvLatency.Observe(wm.Sub(u.Event.End).Seconds())
	}
	m.upd = append(m.upd, u)
}

func (m *emitter) build(gms []grouping.Message) event.Event {
	m.members = m.members[:0]
	for i := range gms {
		gm := &gms[i]
		m.members = append(m.members, event.Member{
			Seq: gm.Seq, Time: gm.Time, Router: gm.Router,
			Template: gm.Template, Loc: gm.Loc, Raw: gm.Raw,
		})
	}
	return m.builder.BuildGroup(m.members)
}
