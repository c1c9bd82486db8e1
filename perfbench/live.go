package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"syslogdigest"
	"syslogdigest/internal/collector"
	"syslogdigest/internal/core"
	"syslogdigest/internal/obs"
	"syslogdigest/internal/syslogmsg"
)

const (
	// liveLead is the gap between starting the clock and the first due
	// send, so the first message is not late by construction.
	liveLead = 20 * time.Millisecond
	// selfLateLimit marks a live run invalid: when the generator's own
	// lateness (past both the due time and the end of its previous write,
	// so not caused by a socket that would not accept bytes) has a p99
	// above this, the offered schedule was not kept.
	selfLateLimit = 50 * time.Millisecond
	// sloLimit is the first-signal latency limit behind slo_miss_ratio.
	sloLimit = 250 * time.Millisecond
	// liveSegments splits the live schedule into stretches whose latency
	// percentiles are summarized by their median (see segments).
	liveSegments = 10
	// drainTimeout bounds the wait for the collector to take the last
	// sent line.
	drainTimeout = 60 * time.Second
)

// liveSession is one open-loop run: a generator goroutine sends the wire
// lines on a fixed schedule over one loopback TCP connection into the
// collector, whose handler pushes into the streamer and writes the
// records; a checkpoint goroutine snapshots the streamer every
// liveCheckpointEvery messages beside ingest, as sdcollect -checkpoint does.
type liveSession struct {
	r       *run
	traced  bool
	n       int
	gap     float64 // ns between due sends
	start   time.Time
	sendAt  []int64 // when each line's write began, ns since start
	selfLat []float64
	writeNs []float64
	entry   []int64 // handler entry per sampled message (traced)

	ckptSnap, ckptWrite []float64 // ms
	ckptBytes           int
	lastSnap            []byte
}

func (ls *liveSession) due(i int) int64 {
	return liveLead.Nanoseconds() + int64(float64(i)*ls.gap)
}

// generate sends every line on schedule and closes the connection.
func (ls *liveSession) generate(conn net.Conn) error {
	defer conn.Close()
	var batch []byte
	var prevEnd int64
	for i := 0; i < ls.n; {
		now := time.Since(ls.start).Nanoseconds()
		if d := ls.due(i); d > now {
			time.Sleep(time.Duration(d - now))
			continue
		}
		first := i
		for i < ls.n && ls.due(i) <= now {
			batch = append(batch, ls.r.lines[i]...)
			ls.sendAt[i] = now
			ls.selfLat = append(ls.selfLat, float64(now-max(ls.due(i), prevEnd))/1e6)
			i++
		}
		if _, err := conn.Write(batch); err != nil {
			return fmt.Errorf("generator: %w", err)
		}
		prevEnd = time.Since(ls.start).Nanoseconds()
		ls.writeNs = append(ls.writeNs, float64(prevEnd-now)/float64(i-first))
		batch = batch[:0]
	}
	return nil
}

// runLive measures live_provisional: one session of the run's length.
func (r *run) runLive() error {
	ls := &liveSession{r: r, traced: r.tr != nil, n: len(r.lines), gap: 1e9 / liveRate}
	ls.sendAt = make([]int64, ls.n)
	if ls.traced {
		ls.entry = make([]int64, ls.n)
	}
	d, err := core.NewDigester(r.kb)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	st := core.NewStreamerWith(d, r.o.w.streamerOptions(""))
	defer st.Close()
	st.Instrument(reg)

	var (
		mu    sync.Mutex // serializes the streamer between handler and checkpoints
		idx   int
		herr  error
		ckpt  = make(chan struct{}, 1)
		ckwg  sync.WaitGroup
		ckerr error
	)
	s := newSink(true, time.Time{})
	s.corrupt = r.o.corrupt
	tr := r.tr
	if ls.traced {
		s.onWrite = tr.sinkWrite
	}
	buffered := reg.Gauge("stream.buffered")
	handler := func(m syslogmsg.Message) {
		i := idx
		idx++
		sampled := ls.traced && tr.sampled(i)
		var root int
		if sampled {
			now := time.Now()
			ls.entry[i] = now.Sub(ls.start).Nanoseconds()
			root = tr.begin("collector.handle", int64(i), -1, now)
		}
		var p int
		var t0 time.Time
		if ls.traced {
			t0 = time.Now()
		}
		if sampled {
			p = tr.begin("core.push", int64(i), root, t0)
		}
		mu.Lock()
		res, err := st.Push(m)
		wm := st.Watermark()
		mu.Unlock()
		if ls.traced {
			t1 := time.Now()
			tr.push(t1.Sub(t0))
			if sampled {
				tr.end(p, t1)
				tr.parent = root
			}
		}
		if err != nil && herr == nil {
			herr = err
		}
		if err := s.add(res, i, wm, true); err != nil && herr == nil {
			herr = err
		}
		if sampled {
			tr.parent = -1
			tr.bufferedMax = max(tr.bufferedMax, buffered.Value())
			tr.end(root, time.Now())
		}
		if (i+1)%liveCheckpointEvery == 0 {
			select {
			case ckpt <- struct{}{}:
			default: // a checkpoint is still being written; skip this one
			}
		}
	}
	ckPath := filepath.Join(r.o.cache, "tmp", fmt.Sprintf("%s-%d.ckpt", r.o.w.name, r.o.seed))
	if err := os.MkdirAll(filepath.Dir(ckPath), 0o755); err != nil {
		return err
	}

	// The clock starts before the collector does: starting its goroutines
	// orders these writes before every handler call that reads them.
	r.begin()
	ls.start = time.Now()
	s.start = ls.start
	if ls.traced {
		tr.pass(ls.start)
	}

	col, err := collector.New(collector.Config{TCPAddr: "127.0.0.1:0", Metrics: reg}, handler)
	if err != nil {
		return err
	}
	if err := col.Start(); err != nil {
		return err
	}
	defer col.Close()
	conn, err := net.Dial("tcp", col.TCPAddr().String())
	if err != nil {
		return err
	}
	ckwg.Add(1)
	go func() {
		defer ckwg.Done()
		for range ckpt {
			t0 := time.Now()
			mu.Lock()
			snap, err := st.Snapshot()
			mu.Unlock()
			t1 := time.Now()
			if err == nil {
				err = syslogdigest.WriteCheckpoint(ckPath, snap)
			}
			if err != nil {
				ckerr = errors.Join(ckerr, err)
				continue
			}
			ls.ckptSnap = append(ls.ckptSnap, float64(t1.Sub(t0).Nanoseconds())/1e6)
			ls.ckptWrite = append(ls.ckptWrite, float64(time.Since(t1).Nanoseconds())/1e6)
			ls.ckptBytes = len(snap)
			ls.lastSnap = snap
		}
	}()

	genErr := ls.generate(conn)
	var cs collector.Stats
	for wait := time.Now(); ; time.Sleep(time.Millisecond) {
		cs = col.Stats()
		if cs.Received+cs.Dropped+cs.Truncated+cs.Oversized >= uint64(ls.n) || time.Since(wait) > drainTimeout {
			break
		}
	}
	if err := col.Close(); err != nil {
		return err
	}
	close(ckpt)
	ckwg.Wait()
	flushAt := time.Since(ls.start).Nanoseconds()
	var dr int
	if ls.traced {
		dr = tr.begin("stream.drain", -1, -1, time.Now())
	}
	res, err := st.Flush()
	if ls.traced {
		tr.end(dr, time.Now())
		tr.parent = dr
	}
	if err != nil {
		return err
	}
	if err := s.add(res, ls.n, st.Watermark(), true); err != nil {
		return err
	}
	if ls.traced {
		tr.parent = -1
	}
	wall := time.Since(ls.start)
	drain := time.Duration(time.Since(ls.start).Nanoseconds() - flushAt)
	r.finish()
	if err := errors.Join(genErr, herr, ckerr); err != nil {
		return err
	}

	pr := &passResult{n: ls.n, t: s.t, wall: wall, drain: drain, snap: reg.Snapshot(), due: make([]int64, ls.n+1)}
	for i := 0; i < ls.n; i++ {
		pr.due[i] = ls.due(i)
	}
	pr.due[ls.n] = flushAt
	sent := uint64(ls.n)
	colLost := sent - min(sent, cs.Received)
	if got := cs.Received + cs.Dropped + cs.Truncated + cs.Oversized; got != sent {
		r.fail(fmt.Errorf("collector books: sent %d, received %d + dropped %d + truncated %d + oversized %d = %d",
			sent, cs.Received, cs.Dropped, cs.Truncated, cs.Oversized, got))
	}
	r.lost += int64(colLost)
	r.collectorLost = colLost
	r.account(pr, ls.traced)

	r.live = ls
	if ls.traced && ls.lastSnap != nil {
		t0 := time.Now()
		rst, err := syslogdigest.RestoreStreamer(d, ls.lastSnap, r.o.w.streamerOptions(""))
		if err != nil {
			return fmt.Errorf("restore checkpoint: %w", err)
		}
		r.layer["checkpoint.restore_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		rst.Close()
	}
	r.detail["gen.lateness_ms_p99"] = pct(lateness(ls), 0.99)
	selfP99 := pct(ls.selfLat, 0.99)
	r.detail["gen.self_lateness_ms_p99"] = selfP99
	r.detail["gen.write_ns_per_msg_p50"] = median(ls.writeNs)
	if selfP99 > float64(selfLateLimit.Milliseconds()) {
		r.fail(fmt.Errorf("invalid run: generator self-lateness p99 %.1f ms exceeds %v", selfP99, selfLateLimit))
	}
	return nil
}

// lateness is how late each line's write began after its due time (ms).
func lateness(ls *liveSession) []float64 {
	out := make([]float64, ls.n)
	for i := range out {
		out[i] = float64(ls.sendAt[i]-ls.due(i)) / 1e6
	}
	return out
}
