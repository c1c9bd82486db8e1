package main

import (
	"fmt"
	"runtime"
	"time"

	"syslogdigest/internal/core"
	"syslogdigest/internal/obs"
)

// passResult is one pass of a workload over its feed.
type passResult struct {
	n     int // messages pushed
	t     *transcript
	due   []int64 // due time of each push (len n+1; n = the closing Flush), ns since the pass began
	wall  time.Duration
	snap  obs.Snapshot
	drain time.Duration
}

// closedPass pushes the whole feed through a fresh streamer as fast as it
// accepts it (closed loop, one caller) and flushes. A message is due when
// its Push begins.
func (r *run) closedPass(traced bool) (*passResult, error) {
	d, err := core.NewDigester(r.kb)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	st := core.NewStreamerWith(d, r.o.w.streamerOptions(r.addr))
	defer st.Close()
	st.Instrument(reg)
	msgs := r.msgs
	n := len(msgs)
	pr := &passResult{n: n, due: make([]int64, n+1)}
	start := time.Now()
	s := newSink(r.o.w.prov > 0, start)
	s.corrupt = r.o.corrupt
	tr := r.tr
	if traced {
		tr.pass(start)
		s.onWrite = tr.sinkWrite
	}
	buffered := reg.Gauge("stream.buffered")
	for i := range msgs {
		t0 := time.Now()
		pr.due[i] = t0.Sub(start).Nanoseconds()
		if !traced {
			res, err := st.Push(msgs[i])
			if err != nil {
				return nil, err
			}
			if err := s.add(res, i, st.Watermark(), true); err != nil {
				return nil, err
			}
			continue
		}
		sampled := tr.sampled(i)
		var root, p int
		if sampled {
			root = tr.begin("msg", int64(i), -1, t0)
			p = tr.begin("core.push", int64(i), root, t0)
		}
		res, err := st.Push(msgs[i])
		t1 := time.Now()
		tr.push(t1.Sub(t0))
		if err != nil {
			return nil, err
		}
		if !sampled {
			if err := s.add(res, i, st.Watermark(), true); err != nil {
				return nil, err
			}
			continue
		}
		tr.end(p, t1)
		if res != nil {
			tr.parent = root
			if err := s.add(res, i, st.Watermark(), true); err != nil {
				return nil, err
			}
			tr.parent = -1
			t1 = time.Now()
		}
		tr.bufferedMax = max(tr.bufferedMax, buffered.Value())
		tr.end(root, t1)
	}
	t0 := time.Now()
	pr.due[n] = t0.Sub(start).Nanoseconds()
	var dr int
	if traced {
		dr = tr.begin("stream.drain", -1, -1, t0)
	}
	res, err := st.Flush()
	if traced {
		tr.end(dr, time.Now())
	}
	pr.drain = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if traced {
		tr.parent = dr
	}
	if err := s.add(res, n, st.Watermark(), true); err != nil {
		return nil, err
	}
	if traced {
		tr.parent = -1
	}
	pr.wall = time.Since(start)
	pr.t = s.t
	pr.snap = reg.Snapshot()
	return pr, nil
}

// checkBooks reconciles one pass's message books: every message pushed is
// fed to the engine or counted as dropped, and every fed message lands in
// exactly one final event. Dropped messages are returned as lost.
func (r *run) checkBooks(pr *passResult) (lost uint64, err error) {
	snap := pr.snap
	pushed := snap.Counter("stream.pushed")
	late := snap.Counter("stream.dropped.late")
	ovf := snap.Counter("stream.dropped.overflow")
	lost = late + ovf
	if pushed != uint64(len(r.msgs)) {
		return lost, fmt.Errorf("stream.pushed %d, pushed %d", pushed, len(r.msgs))
	}
	if fed := pushed - lost; int64(fed) != pr.t.Fed {
		return lost, fmt.Errorf("books: fed %d (pushed %d - late %d - overflow %d) but final events hold %d messages",
			fed, pushed, late, ovf, pr.t.Fed)
	}
	if r.o.w.workers > 1 {
		var sum uint64
		for k := 0; k < r.o.w.workers; k++ {
			sum += snap.Counter(fmt.Sprintf("stream.shard.%d.pushed", k))
		}
		if int64(sum) != pr.t.Fed {
			return lost, fmt.Errorf("books: shards pushed %d, final events hold %d messages", sum, pr.t.Fed)
		}
	}
	if r.o.w.cluster {
		if rc := snap.Counter("stream.cluster.reconnects"); rc != 0 {
			return lost, fmt.Errorf("cluster: %d reconnects", rc)
		}
		if s, a := snap.Counter("stream.cluster.batches_sent"), snap.Counter("stream.cluster.batches_acked"); s != a {
			return lost, fmt.Errorf("cluster: %d batches sent, %d acked", s, a)
		}
	}
	if finals := pr.t.Events.len(); finals != r.ref.Digest {
		return lost, fmt.Errorf("%d final events, Digester.Digest gives %d", finals, r.ref.Digest)
	}
	return lost, nil
}

// runClosed measures a closed-loop workload: whole passes over the feed
// until the run's time is spent (at least one), every pass checked.
// Traced runs alternate untraced and traced passes, so that the tracing
// overhead is measured in the same run, and follow each traced pass with
// one repetition of the isolated layer passes (outside the measured time).
func (r *run) runClosed() error {
	deadline := time.Duration(r.o.seconds * float64(time.Second))
	traced := r.tr != nil
	r.begin()
	minPasses := 1
	if traced {
		minPasses = 2 * minTracedPasses
	}
	for i := 0; i < minPasses || r.measured() < deadline || (traced && i%2 == 1); i++ {
		tracedPass := traced && i%2 == 1
		// Traced runs alternate variants per pair of passes, so that both
		// the traced and the untraced passes see both.
		r.use(i / (1 + b2i(traced)) % len(r.variants))
		if traced {
			runtime.GC()
		}
		pr, err := r.closedPass(tracedPass)
		if err != nil {
			return err
		}
		r.account(pr, tracedPass)
		if tracedPass {
			if err := r.innerRep(); err != nil {
				return err
			}
		}
	}
	r.finish()
	r.use(0)
	return nil
}

// minTracedPasses is the fewest traced passes a traced closed-loop run
// makes: the ledger is the median over as many pairs, and a storm pass
// takes ~3.5 s, so a 15 s run would otherwise give it two.
const minTracedPasses = 5
