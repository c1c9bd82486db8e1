package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs (--trace 0), in the order
// BENCHMARK.json lists them. The latency tails (p99, or the highest
// percentile with ten samples beyond it) and the memory peaks are in the
// record line and the per-layer metrics only: across seeds they spread
// wider than any bound BENCHMARK.json may set (README.md, "Metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_s", "msgs/s"},
	{"cpu_us_per_msg", "us"},
	{"allocs_per_msg", "count"},
	{"first_signal_p50_ms", "ms"},
	{"final_p50_ms", "ms"},
}

// perLayer are the metrics of traced runs (--trace 1). A layer that a
// workload does not run reports 0.
var perLayer = []metricDef{
	{"collector.deliver_us_p50", "us"},
	{"collector.deliver_us_p99", "us"},
	{"collector.lost", "count"},
	{"syslogmsg.parse_ns_per_msg", "ns"},
	{"syslogmsg.parse_allocs_per_msg", "count"},
	{"core.augment_ns_per_msg", "ns"},
	{"core.augment_allocs_per_msg", "count"},
	{"core.match_cache_hit_ratio", "ratio"},
	{"core.match_candidates_per_miss", "count"},
	{"core.push_ns_per_msg", "ns"},
	{"core.reorder_ns_per_msg", "ns"},
	{"core.reordered", "count"},
	{"core.buffered_max", "count"},
	{"stream.observe_ns_per_msg", "ns"},
	{"stream.observe_blocked_ms", "ms"},
	{"stream.emit_delay_msgs_p50", "msgs"},
	{"stream.emit_delay_msgs_p99", "msgs"},
	{"stream.shard_skew", "ratio"},
	{"stream.merge_lag_s_p50", "s"},
	{"stream.drain_ms", "ms"},
	{"stream.first_signal_log_p50_s", "s"},
	{"grouping.ns_per_msg", "ns"},
	{"grouping.allocs_per_msg", "count"},
	{"grouping.rule_candidates_per_msg", "count"},
	{"grouping.rule_pairs_per_candidate", "ratio"},
	{"grouping.cross_candidates_per_msg", "count"},
	{"grouping.open_messages_max", "count"},
	{"grouping.streams_max", "count"},
	{"grouping.evictions", "count"},
	{"event.build_ns_per_msg", "ns"},
	{"event.updates_per_event", "ratio"},
	{"event.members_per_update", "count"},
	{"event.publish_ns_per_update", "ns"},
	{"sink.ns_per_record", "ns"},
	{"sink.bytes_per_record", "B"},
	{"checkpoint.snapshot_ms_p50", "ms"},
	{"checkpoint.write_ms_p50", "ms"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.restore_ms", "ms"},
	{"cluster.wire_bytes_per_msg", "B"},
	{"cluster.rtt_ms_p50", "ms"},
	{"cluster.rtt_ms_p99", "ms"},
	{"cluster.batches_per_kmsg", "count"},
	{"cluster.reconnects", "count"},
	{"template.learn_ms", "ms"},
	{"temporal.calibrate_ms", "ms"},
	{"rules.mine_ms", "ms"},
	{"core.learn_ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_kmsg", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.heap_live_mb", "MB"},
	{"runtime.peak_rss_mb", "MB"},
	{"pipeline.drop_ratio", "ratio"},
	{"pipeline.slo_miss_ratio", "ratio"},
	{"gen.lateness_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.ledger_ratio", "ratio"},
	{"trace.wall_ns_per_msg", "ns"},
	{"trace.loop_ns_per_msg", "ns"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// e2e computes the end-to-end metrics from the untraced passes (the only
// passes of an untraced run).
func (r *run) e2e() map[string]float64 {
	a := &r.agg[b2i(r.o.trace)]
	msgs := float64(r.attempted) // every pass of the measured phase
	du := r.u1
	first, final := a.latencies()
	return map[string]float64{
		"setup_s":             median(r.setupS),
		"msgs_per_s":          a.steadyRate(),
		"cpu_us_per_msg":      float64((du.cpu - r.u0.cpu).Microseconds()) / msgs,
		"allocs_per_msg":      float64(du.mallocs-r.u0.mallocs) / msgs,
		"first_signal_p50_ms": first.summarize().P50,
		"final_p50_ms":        final.summarize().P50,
	}
}

// layerCounters fills the per-layer metrics read from the pipeline's own
// books and the pass samples.
func (r *run) layerCounters() {
	L := r.layer
	a := &r.agg[b2i(r.o.trace)]
	msgs := float64(r.attempted)
	ref := r.ref.T
	L["collector.lost"] = float64(r.collectorLost)
	L["stream.emit_delay_msgs_p50"] = pct(a.delay, 0.5)
	L["stream.emit_delay_msgs_p99"] = summarize(a.delay).Tail
	L["stream.drain_ms"] = median(a.drainMs)
	L["stream.first_signal_log_p50_s"] = median(a.logLag)
	if f := ref.Events.len(); f > 0 {
		L["event.updates_per_event"] = float64(ref.Updates.len()) / float64(f)
	}
	if u := ref.Updates.len(); u > 0 {
		L["event.members_per_update"] = float64(ref.Members) / float64(u)
	}
	if n := ref.Updates.len() + ref.Events.len(); n > 0 {
		L["sink.bytes_per_record"] = float64(ref.Bytes) / float64(n)
	}
	du, u0 := r.u1, r.u0
	if cpu := du.allCPU - u0.allCPU; cpu > 0 {
		L["runtime.gc_cpu_fraction"] = (du.gcCPU - u0.gcCPU) / cpu
	}
	L["runtime.gc_cycles_per_kmsg"] = float64(du.numGC-u0.numGC) * 1000 / msgs
	L["runtime.peak_rss_mb"] = peakRSSMB()
	if r.attempted > 0 {
		L["pipeline.drop_ratio"] = float64(r.lost) / float64(r.attempted)
	}
	if pr := a.last; pr != nil {
		snap := pr.snap
		n := float64(pr.n)
		L["core.reordered"] = float64(snap.Counter("stream.reordered"))
		if w := r.o.w.workers; w > 1 {
			var mx, sum float64
			for k := 0; k < w; k++ {
				v := float64(snap.Counter(fmt.Sprintf("stream.shard.%d.pushed", k)))
				mx, sum = max(mx, v), sum+v
			}
			if sum > 0 {
				L["stream.shard_skew"] = mx / (sum / float64(w))
			}
			L["stream.merge_lag_s_p50"] = histQuantile(snap.Histogram("stream.merge.lag_seconds"), 0.5)
		}
		if r.o.w.cluster {
			L["cluster.wire_bytes_per_msg"] = float64(snap.Counter("stream.cluster.bytes_out")+snap.Counter("stream.cluster.bytes_in")) / n
			rtt := snap.Histogram("stream.cluster.rtt_seconds")
			L["cluster.rtt_ms_p50"] = histQuantile(rtt, 0.5) * 1000
			L["cluster.rtt_ms_p99"] = histQuantile(rtt, 0.99) * 1000
			L["cluster.batches_per_kmsg"] = float64(snap.Counter("stream.cluster.batches_sent")) * 1000 / n
			L["cluster.reconnects"] = float64(snap.Counter("stream.cluster.reconnects"))
		}
	}
	if ls := r.live; ls != nil {
		firsts := 0
		for _, rs := range ref.streams() {
			for _, f := range rs.First {
				if f {
					firsts++
				}
			}
		}
		if firsts > 0 {
			first, _ := a.latencies()
			missing := firsts - first.summarize().N
			L["pipeline.slo_miss_ratio"] = float64(a.sloMiss+missing) / float64(firsts)
		}
		L["gen.lateness_ms_p99"] = pct(lateness(ls), 0.99)
		L["checkpoint.snapshot_ms_p50"] = median(ls.ckptSnap)
		L["checkpoint.write_ms_p50"] = median(ls.ckptWrite)
		L["checkpoint.bytes"] = float64(ls.ckptBytes)
		if ls.entry != nil {
			var deliver []float64
			for i := 0; i < ls.n; i++ {
				if r.tr.sampled(i) {
					deliver = append(deliver, float64(ls.entry[i]-ls.sendAt[i])/1e3)
				}
			}
			d := summarize(deliver)
			L["collector.deliver_us_p50"], L["collector.deliver_us_p99"] = d.P50, d.Tail
		}
	}
}

func (r *run) result() *result {
	r.layerCounters()
	res := &result{Attempted: r.attempted, Failed: r.lost, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, r.e2e()
	if r.o.trace {
		defs, vals = perLayer, r.layer
	}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			r.fail(fmt.Errorf("metric %s is not a finite number", m.name))
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	res.Correct = len(r.errs) == 0
	return res
}

// record is the line before the result: host fingerprint, seed, CPU and
// wall time, sample distributions, and any correctness failures. Results
// from different fingerprints are not compared on wall clock.
func (r *run) record() map[string]any {
	a := &r.agg[b2i(r.o.trace)]
	first, final := a.latencies()
	rec := map[string]any{
		"workload":        r.o.w.name,
		"seed":            r.o.seed,
		"scale":           r.o.sc.Name,
		"trace":           r.o.trace,
		"messages":        len(r.msgs),
		"passes":          a.passes,
		"cpu_model":       cpuModel(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          gitCommit(),
		"source_sha256":   sourceDigest(),
		"wall_s":          r.u1.wall.Sub(r.u0.wall).Seconds(),
		"cpu_s":           (r.u1.cpu - r.u0.cpu).Seconds(),
		"steal_s":         r.u1.steal - r.u0.steal,
		"first_signal_ms": first.summarize(),
		"final_ms":        final.summarize(),
		"msgs_per_s":      summarize(a.rate),
		"pass_msgs_per_s": a.rate,
		"steady_passes":   len(a.steady()),
		"peak_rss_mb":     peakRSSMB(),
		"heap_live_mb":    r.layer["runtime.heap_live_mb"],
		"drop_ratio":      r.layer["pipeline.drop_ratio"],
		"errors":          strings.Join(r.errs, "; "),
	}
	if r.o.w.live {
		rec["slo_miss_ratio"] = r.layer["pipeline.slo_miss_ratio"]
		rec["slo_limit_ms"] = sloLimit.Milliseconds()
		rec["rate"] = liveRate
	}
	if !r.o.trace {
		rec["e2e"] = r.e2e()
	}
	for k, v := range r.detail {
		rec[k] = v
	}
	return map[string]any{"record": rec}
}
