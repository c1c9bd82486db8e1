package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"syslogdigest/internal/cluster"
	"syslogdigest/internal/collector"
	"syslogdigest/internal/core"
	"syslogdigest/internal/experiments"
	"syslogdigest/internal/gen"
	"syslogdigest/internal/syslogmsg"
)

// workload is one input set and pipeline shape. README.md records why
// each was chosen and which layers it is meant to exercise.
type workload struct {
	name    string
	workers int           // engine shards (1 = serial engine)
	prov    time.Duration // provisional horizon; negative = tier off
	cluster bool          // shards served by an in-process cluster.Serve
	live    bool          // open loop over loopback TCP into the collector
	storm   bool          // storm corpus under StormParams
}

// workloads are the benchmark's workloads in BENCHMARK.json order, then
// storm_serial, which runs by name only. Its first_signal_p50_ms rests on
// ~140 records per pass that split into cheap (0.1–0.5 ms) and expensive
// (1–10 ms) closing pushes with the median between them, so it spread
// 0.15 and 0.38 of its median over two sets of ten seeds, wider than
// BENCHMARK.json may bound. It stays for its traced ledger, the storm's
// grouping counters and the serial emit delay.
var workloads = []workload{
	{name: "live_provisional", workers: 2, prov: liveHorizon, live: true},
	{name: "replay_sharded", workers: 2, prov: -1},
	{name: "replay_cluster", workers: 2, prov: -1, cluster: true},
	{name: "storm_serial", workers: 1, prov: -1, storm: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// liveHorizon is the provisional horizon of live_provisional.
	liveHorizon = 30 * time.Second
	// liveRate is live_provisional's fixed offered rate in msgs/s. With
	// the tier on, a 2-CPU host sustains ~13,800 msgs/s on this path at
	// seed 1 but only ~9,000 on seeds with long-lived, often-revised
	// groups; 4500 is half of the latter, so no seed builds a backlog.
	liveRate = 4500
	// liveCheckpointEvery is how many messages pass between checkpoints.
	liveCheckpointEvery = 25000
	// setupReps is how many times a run builds the program's set-up; the
	// median is setup_s.
	setupReps = 3
)

// variants is how many thinned feeds a run takes from its seed. Closed
// loops alternate them from pass to pass, so that latency percentiles
// rest on more distinct records. A storm pass publishes only ~140 records
// before the closing drain, and their latencies spread widely (p45 to p55
// is 0.9 to 1.7 ms), so the median of one feed's records moved 0.5–1.1 ms
// from seed to seed; four feeds (one pass each in a 15 s run) cut the
// spread of the median over ten seeds. A replay pass takes ~0.5 s, so two
// feeds each get many passes. The open loop's one session sends one feed.
func (w workload) variants() int {
	switch {
	case w.live:
		return 1
	case w.storm:
		return 4
	}
	return 2
}

// feed returns the messages variant v of a workload pushes and, for the
// wire-fed workloads, the RFC 5424 lines they were parsed from.
// live_provisional sends the prefix its schedule reaches within the run.
func (w workload) feed(c *corpus, o *options, v int) ([][]byte, []syslogmsg.Message, error) {
	feed := thinFeed(c.Feed, o.seed, v)
	if w.storm {
		return nil, feed, nil
	}
	n := len(feed)
	if o.sc.ReplayMessages > 0 {
		n = min(n, o.sc.ReplayMessages)
	}
	if w.live {
		n = min(n, int(liveRate*o.seconds))
	}
	return wireLines(feed[:n])
}

// learnKB is the knowledge-base half of the program's set-up.
func (w workload) learnKB(c *corpus) (*core.KnowledgeBase, error) {
	kb, err := core.NewLearner(experiments.ParamsFor(gen.DatasetA)).Learn(c.Learn, c.Configs)
	if err != nil {
		return nil, err
	}
	if w.storm {
		kb.Params = experiments.StormParams(kb.Params)
	}
	return kb, nil
}

func (w workload) streamerOptions(addr string) core.StreamerOptions {
	opts := core.StreamerOptions{StreamWorkers: w.workers, ProvisionalHorizon: w.prov}
	if w.cluster {
		opts.ShardAddrs = make([]string, w.workers)
		for i := range opts.ShardAddrs {
			opts.ShardAddrs[i] = addr
		}
	}
	return opts
}

// setupOnce builds the program's set-up the way a deployment does: learn
// the knowledge base, build the digester and streamer, and start the
// collector or shard server the workload uses (closed again here). It
// returns the knowledge base and the learning time.
func (w workload) setupOnce(c *corpus) (*core.KnowledgeBase, time.Duration, error) {
	t0 := time.Now()
	kb, err := w.learnKB(c)
	if err != nil {
		return nil, 0, err
	}
	learn := time.Since(t0)
	d, err := core.NewDigester(kb)
	if err != nil {
		return nil, 0, err
	}
	addr := ""
	switch {
	case w.cluster:
		srv, err := cluster.Serve("127.0.0.1:0", cluster.ServerConfig{Dict: kb.Dictionary(), Rules: kb.RuleBase})
		if err != nil {
			return nil, 0, err
		}
		addr = srv.Addr()
		defer srv.Close()
	case w.live:
		col, err := collector.New(collector.Config{TCPAddr: "127.0.0.1:0"}, func(syslogmsg.Message) {})
		if err != nil {
			return nil, 0, err
		}
		if err := col.Start(); err != nil {
			return nil, 0, err
		}
		defer col.Close()
	}
	st := core.NewStreamerWith(d, w.streamerOptions(addr))
	st.Close()
	return kb, learn, nil
}

// runReference streams msgs through the serial engine behind the same
// streamer front end (reorder buffer, provisional horizon) and returns its
// transcript: the byte-level reference every workload pass must match.
func (w workload) runReference(kb *core.KnowledgeBase, msgs []syslogmsg.Message) (*transcript, error) {
	d, err := core.NewDigester(kb)
	if err != nil {
		return nil, err
	}
	st := core.NewStreamerWith(d, core.StreamerOptions{StreamWorkers: 1, ProvisionalHorizon: w.prov})
	defer st.Close()
	s := newSink(w.prov > 0, time.Time{})
	for i := range msgs {
		res, err := st.Push(msgs[i])
		if err != nil {
			return nil, err
		}
		if err := s.add(res, i, st.Watermark(), false); err != nil {
			return nil, err
		}
	}
	res, err := st.Flush()
	if err != nil {
		return nil, err
	}
	if err := s.add(res, len(msgs), st.Watermark(), false); err != nil {
		return nil, err
	}
	return s.t, nil
}

// refPath names the cached serial reference of one feed variant. The key
// holds the digest of the code under test: a reference computed by one
// commit's engine is never used to check another's.
func (o *options) refPath(v, n int) string {
	p := profileFor(o.sc, o.w.name)
	return filepath.Join(o.cache, "ref", fmt.Sprintf("%s-%s-c%d-k%g-%d-v%d-%d-%.16s.json",
		o.sc.Name, o.w.name, p.Seed, feedKeep, o.seed, v, n, sourceDigest()))
}

// prep generates (or finds) the corpus and the serial reference of one
// run, caching both by seed under the cache directory. It runs in its own
// process so generation and the reference pass stay out of the measured
// process's timings and peak RSS.
func prep(o *options) error {
	dir := corpusDir(o.cache, o.sc, o.w.name)
	var c *corpus
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		if c, err = generate(o.sc, o.w.name); err != nil {
			return err
		}
		if err := writeCorpus(dir, c); err != nil {
			return fmt.Errorf("cache corpus: %w", err)
		}
	}
	c, err := readCorpus(dir)
	if err != nil {
		return err
	}
	var kb *core.KnowledgeBase
	for v := 0; v < o.w.variants(); v++ {
		_, msgs, err := o.w.feed(c, o, v)
		if err != nil {
			return err
		}
		path := o.refPath(v, len(msgs))
		if _, err := os.Stat(path); err == nil {
			continue
		}
		if kb == nil {
			if kb, err = o.w.learnKB(c); err != nil {
				return err
			}
		}
		t, err := o.w.runReference(kb, msgs)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		d, err := core.NewDigester(kb)
		if err != nil {
			return err
		}
		res, err := d.Digest(msgs)
		if err != nil {
			return fmt.Errorf("digest: %w", err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		ref := &reference{Messages: len(msgs), Digest: len(res.Events), T: t}
		if err := ref.save(path); err != nil {
			return err
		}
	}
	return nil
}

// ensurePrepared runs prep in a child process of this binary.
func ensurePrepared(o *options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, append([]string{"prep"}, o.args()...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("prep: %w", err)
	}
	return nil
}
