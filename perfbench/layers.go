package main

import (
	"fmt"
	"runtime"
	"time"

	"syslogdigest/internal/core"
	"syslogdigest/internal/event"
	"syslogdigest/internal/experiments"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/grouping"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/rules"
	"syslogdigest/internal/stream"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/template"
	"syslogdigest/internal/temporal"
)

// Calibration grid of core.Learner.Learn (CalibrateTemporal), timed alone
// as temporal.calibrate_ms.
var (
	calibAlphas = []float64{0.01, 0.025, 0.05, 0.075, 0.1, 0.2, 0.3, 0.45, 0.6}
	calibBetas  = []float64{2, 3, 4, 5, 6, 7}
)

// parseProbeMax bounds the lines the parse probe renders.
const parseProbeMax = 200000

// timed runs f and returns its wall time and heap allocations. It
// collects first, as traced passes do (see runClosed), so that no pass
// inherits another's garbage.
func timed(f func() error) (time.Duration, uint64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, err
}

// innerPasses are the second-pass timings of layers that a public call
// hides: each inner layer's public function called alone over the feed.
type innerPasses struct {
	augment, grouping, engine, engineOff, serialPush float64 // ns per message
	// dispatch is the workload's own sharded or cluster engine alone
	// (multi-worker workloads only).
	dispatch float64
	// The derived layers, each the median over repetitions of a
	// difference taken within one repetition: reorder = serial push -
	// augment - engine, build = engine - grouping, publish = engine -
	// engine with the tier off.
	reorder, build, publish float64
}

// innerSamples are the isolated passes' timings, one per repetition, in
// ns per message.
type innerSamples struct {
	augment, grouping, engine, engineOff, serialPush, dispatch []float64
}

// innerReps is how many full isolated repetitions a traced run makes. The
// open loop runs them after its session. A closed loop runs one after
// each traced pass instead, on the same feed variant, so that a repetition
// and its traced pass see the same host conditions (see ledger); past
// innerReps it runs only the passes the ledger sums.
const innerReps = 3

// innerRep runs the isolated passes once over the current feed variant:
// KnowledgeBase.Augment, grouping.Incremental, the serial stream.Engine
// (also with the tier off when the workload has it on), a serial
// Streamer's Push, and on multi-worker workloads the workload's own
// sharded or cluster engine. The first repetition also fills the layer
// counters these passes expose. Its time, CPU and allocations are kept
// out of the run's measured phase.
func (r *run) innerRep() error {
	from := readUsage()
	if r.heap != nil {
		r.heap.paused.Store(true)
	}
	err := r.innerPasses(len(r.inner.serialPush))
	runtime.GC() // drop the passes' garbage before measuring resumes
	if r.heap != nil {
		r.heap.paused.Store(false)
	}
	r.excluded = append(r.excluded, [2]usage{from, readUsage()})
	return err
}

// innerPasses runs repetition rep of the isolated passes.
func (r *run) innerPasses(rep int) error {
	first, full := rep == 0, rep < innerReps
	multi := r.o.w.workers > 1
	msgs := r.msgs
	n := float64(len(msgs))
	kb := r.kb
	L := r.layer
	in := &r.inner
	dg, err := core.NewDigester(kb)
	if err != nil {
		return err
	}
	prov := max(0, r.o.w.prov)
	gcfg := grouping.IncrementalConfig{
		Config: grouping.Config{
			Temporal:    kb.Params.Temporal,
			RuleWindow:  kb.Params.Rules.Window,
			CrossWindow: kb.Params.CrossWindow,
			MaxScan:     kb.Params.MaxScan,
		},
		ProvisionalHorizon: prov,
	}

	// core: the serial Streamer's Push (reorder + augment + engine).
	p, err := r.serialPushPass(dg)
	if err != nil {
		return fmt.Errorf("serial push pass: %w", err)
	}
	in.serialPush = append(in.serialPush, p)
	if !full && !multi {
		return nil
	}

	// core: KnowledgeBase.Augment alone.
	reg := obs.NewRegistry()
	if first {
		kb.Instrument(reg)
	}
	plus := make([]core.PlusMessage, len(msgs))
	d, allocs, _ := timed(func() error {
		for i := range msgs {
			m := msgs[i]
			plus[i] = kb.Augment(&m)
		}
		return nil
	})
	in.augment = append(in.augment, float64(d.Nanoseconds())/n)
	if first {
		kb.Instrument(nil)
		snap := reg.Snapshot()
		L["core.augment_allocs_per_msg"] = float64(allocs) / n
		hits, misses := snap.Counter("digest.match.cache.hits"), snap.Counter("digest.match.cache.misses")
		if hits+misses > 0 {
			L["core.match_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		if misses > 0 {
			L["core.match_candidates_per_miss"] = float64(snap.Counter("digest.match.candidates_scanned")) / float64(misses)
		}
	}

	// grouping: Incremental alone; then the serial engine over it.
	if full {
		g, err := r.groupingPass(plus, gcfg, first)
		if err != nil {
			return fmt.Errorf("grouping pass: %w", err)
		}
		in.grouping = append(in.grouping, g)
	}
	e, err := r.enginePass(plus, gcfg, dg, prov)
	if err != nil {
		return fmt.Errorf("engine pass: %w", err)
	}
	in.engine = append(in.engine, e)
	if full && prov > 0 {
		if e, err = r.enginePass(plus, gcfg, dg, 0); err != nil {
			return fmt.Errorf("engine pass: %w", err)
		}
		in.engineOff = append(in.engineOff, e)
	}

	if w := r.o.w.workers; multi {
		p, err := r.timeEngine(plus, func() (engine, error) {
			cfg := stream.Config{Grouping: gcfg, Freq: kb.Freq, Labeler: dg.Labeler()}
			if r.o.w.cluster {
				addrs := make([]string, w)
				for i := range addrs {
					addrs[i] = r.addr
				}
				return stream.NewCluster(kb.Dictionary(), kb.RuleBase, cfg, addrs)
			}
			return stream.NewSharded(kb.Dictionary(), kb.RuleBase, cfg, w)
		})
		if err != nil {
			return fmt.Errorf("%d-worker engine pass: %w", w, err)
		}
		in.dispatch = append(in.dispatch, p)
	}
	return nil
}

// isolated returns each isolated layer's median over the repetitions and
// fills the layer metrics derived from them.
func (r *run) isolated() innerPasses {
	in := &r.inner
	ip := innerPasses{augment: median(in.augment), grouping: median(in.grouping), engine: median(in.engine),
		engineOff: median(in.engineOff), serialPush: median(in.serialPush), dispatch: median(in.dispatch)}
	var reorder, build, publish []float64
	for k := range in.augment {
		reorder = append(reorder, in.serialPush[k]-in.augment[k]-in.engine[k])
	}
	for k := range in.grouping {
		build = append(build, in.engine[k]-in.grouping[k])
	}
	for k := range in.engineOff {
		publish = append(publish, in.engine[k]-in.engineOff[k])
	}
	ip.reorder, ip.build, ip.publish = median(reorder), median(build), median(publish)
	L := r.layer
	L["core.augment_ns_per_msg"] = ip.augment
	L["grouping.ns_per_msg"] = ip.grouping
	L["event.build_ns_per_msg"] = ip.build
	if u := r.ref.T.Updates.len(); u > 0 && len(publish) > 0 {
		L["event.publish_ns_per_update"] = ip.publish * float64(len(r.msgs)) / float64(u)
	}
	r.detail["inner_ns_per_msg"] = map[string][]float64{
		"augment": in.augment, "grouping": in.grouping, "engine": in.engine, "engine_tier_off": in.engineOff,
		"serial_push": in.serialPush, "dispatch": in.dispatch,
	}
	return ip
}

// serialPushPass times Push on a serial Streamer over the feed (the
// closing Flush excluded).
func (r *run) serialPushPass(dg *core.Digester) (float64, error) {
	st := core.NewStreamerWith(dg, core.StreamerOptions{StreamWorkers: 1, ProvisionalHorizon: r.o.w.prov})
	defer st.Close()
	st.Instrument(obs.NewRegistry())
	d, _, err := timed(func() error {
		for i := range r.msgs {
			if _, err := st.Push(r.msgs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(d.Nanoseconds()) / float64(len(r.msgs)), err
}

// groupingPass times grouping.Incremental alone over augmented messages
// (the final drain excluded: the ledger times it as stream.drain); with
// record set it fills the grouping layer's counters.
func (r *run) groupingPass(plus []core.PlusMessage, gcfg grouping.IncrementalConfig, record bool) (float64, error) {
	L := r.layer
	n := float64(len(plus))
	reg := obs.NewRegistry()
	inc, err := grouping.NewIncremental(r.kb.Dictionary(), r.kb.RuleBase, gcfg)
	if err != nil {
		return 0, err
	}
	inc.SetMetrics(grouping.IncMetrics{
		RuleCandidates:  reg.Counter("rule"),
		RulePairs:       reg.Counter("pairs"),
		CrossCandidates: reg.Counter("cross"),
	})
	var openMax, streamsMax int
	d, allocs, err := timed(func() error {
		for i := range plus {
			p := &plus[i]
			closed, err := inc.Observe(grouping.Message{
				Seq: i, Time: p.Time, Router: p.Router, Template: p.Template,
				Loc: p.Loc, AllLocs: p.AllLocs, Peers: p.Peers, Raw: p.Index,
			})
			if err != nil {
				return err
			}
			inc.Recycle(closed)
			if i%256 == 0 {
				st := inc.Stats()
				openMax, streamsMax = max(openMax, st.OpenMessages), max(streamsMax, st.Streams)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	inc.Recycle(inc.Drain())
	if record {
		gs := inc.Stats()
		snap := reg.Snapshot()
		L["grouping.allocs_per_msg"] = float64(allocs) / n
		L["grouping.rule_candidates_per_msg"] = float64(snap.Counter("rule")) / n
		if c := snap.Counter("rule"); c > 0 {
			L["grouping.rule_pairs_per_candidate"] = float64(snap.Counter("pairs")) / float64(c)
		}
		L["grouping.cross_candidates_per_msg"] = float64(snap.Counter("cross")) / n
		L["grouping.open_messages_max"] = float64(openMax)
		L["grouping.streams_max"] = float64(streamsMax)
		L["grouping.evictions"] = float64(gs.StreamEvictions)
	}
	return float64(d.Nanoseconds()) / n, nil
}

// engine is what the isolated engine passes drive: the serial, sharded or
// cluster stream engine.
type engine interface {
	Observe(stream.Message) ([]event.Event, error)
	TakeUpdates() []event.Update
	Close()
}

// enginePass times the serial stream.Engine alone, built from the
// knowledge base's public parts, with provisional horizon h.
func (r *run) enginePass(plus []core.PlusMessage, gcfg grouping.IncrementalConfig, dg *core.Digester, h time.Duration) (float64, error) {
	kb := r.kb
	gcfg.ProvisionalHorizon = h
	return r.timeEngine(plus, func() (engine, error) {
		return stream.New(kb.Dictionary(), kb.RuleBase, stream.Config{Grouping: gcfg, Freq: kb.Freq, Labeler: dg.Labeler()})
	})
}

// timeEngine times one engine's Observe (and TakeUpdates) over the
// augmented messages, the final drain excluded, in ns per message.
func (r *run) timeEngine(plus []core.PlusMessage, build func() (engine, error)) (float64, error) {
	eng, err := build()
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	d, _, err := timed(func() error {
		for i := range plus {
			p := &plus[i]
			if _, err := eng.Observe(stream.Message{
				Seq: i, Time: p.Time, Router: p.Router, Template: p.Template,
				Loc: p.Loc, AllLocs: p.AllLocs, Peers: p.Peers, Raw: p.Index,
			}); err != nil {
				return err
			}
			eng.TakeUpdates()
		}
		return nil
	})
	return float64(d.Nanoseconds()) / float64(len(plus)), err
}

// learnStages times the learning stages behind setup_s one by one, each
// through its own package's public function.
func (r *run) learnStages() error {
	params := experiments.ParamsFor(gen.DatasetA)
	L := r.layer
	d, _, _ := timed(func() error {
		template.Learn(r.c.Learn, params.Template)
		return nil
	})
	L["template.learn_ms"] = float64(d.Nanoseconds()) / 1e6
	plus := r.kb.AugmentAll(r.c.Learn)
	streams := core.TemporalStreams(plus)
	d, _, err := timed(func() error {
		_, err := temporal.CalibrateWith(nil, streams, calibAlphas, calibBetas, params.Temporal)
		return err
	})
	if err != nil {
		return err
	}
	L["temporal.calibrate_ms"] = float64(d.Nanoseconds()) / 1e6
	events := core.RuleEvents(plus)
	d, _, err = timed(func() error {
		_, err := rules.Mine(events, params.Rules)
		return err
	})
	if err != nil {
		return err
	}
	L["rules.mine_ms"] = float64(d.Nanoseconds()) / 1e6
	return nil
}

// parseProbe times syslogmsg.ParseWireBytes over the lines the workload
// sends (the storm feed is rendered the same way for the probe).
func (r *run) parseProbe() error {
	lines := r.lines
	if lines == nil {
		feed := r.msgs[:min(len(r.msgs), parseProbeMax)]
		var err error
		if lines, _, err = wireLines(feed); err != nil {
			return err
		}
	}
	d, allocs, err := timed(func() error {
		for i, l := range lines {
			if _, err := syslogmsg.ParseWireBytes(l[:len(l)-1], uint64(i), 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer["syslogmsg.parse_ns_per_msg"] = float64(d.Nanoseconds()) / float64(len(lines))
	r.layer["syslogmsg.parse_allocs_per_msg"] = float64(allocs) / float64(len(lines))
	return nil
}
